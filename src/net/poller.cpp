#include "net/poller.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include <cstdlib>

#include "common/contracts.hpp"

namespace reconf::net {

namespace {

bool force_poll_backend() {
  const char* env = std::getenv("RECONF_NET_POLL");
  return env != nullptr && env[0] == '1';
}

}  // namespace

Poller::Poller() {
#if defined(__linux__)
  if (!force_poll_backend()) {
    epoll_fd_ = ::epoll_create1(0);
    use_epoll_ = epoll_fd_ >= 0;  // fall back to poll on failure
  }
#endif
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

const char* Poller::backend() const noexcept {
  return use_epoll_ ? "epoll" : "poll";
}

void Poller::add(int fd, std::uint64_t tag, bool want_read, bool want_write) {
  entries_[fd] = Entry{tag, want_read, want_write};
#if defined(__linux__)
  if (use_epoll_) {
    struct epoll_event ev = {};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      RECONF_ASSERT(errno == EPERM);  // a regular file or /dev/null
      always_ready_.push_back(fd);
    }
  }
#endif
}

void Poller::update(int fd, bool want_read, bool want_write) {
  const auto it = entries_.find(fd);
  RECONF_ASSERT(it != entries_.end());
  if (it->second.want_read == want_read &&
      it->second.want_write == want_write) {
    return;
  }
  it->second.want_read = want_read;
  it->second.want_write = want_write;
#if defined(__linux__)
  if (use_epoll_ && std::find(always_ready_.begin(), always_ready_.end(),
                              fd) == always_ready_.end()) {
    struct epoll_event ev = {};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    const int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    RECONF_ASSERT(rc == 0);
  }
#endif
}

void Poller::remove(int fd) {
  entries_.erase(fd);
  always_ready_.erase(
      std::remove(always_ready_.begin(), always_ready_.end(), fd),
      always_ready_.end());
#if defined(__linux__)
  if (use_epoll_) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
}

int Poller::wait(std::vector<PollEvent>& out, int timeout_ms) {
  out.clear();
#if defined(__linux__)
  if (use_epoll_) {
    // Always-ready fds with interest must not sleep behind the timeout.
    for (const int fd : always_ready_) {
      const Entry& entry = entries_[fd];
      if (!entry.want_read && !entry.want_write) continue;
      PollEvent ev;
      ev.tag = entry.tag;
      ev.fd = fd;
      ev.readable = entry.want_read;
      ev.writable = entry.want_write;
      out.push_back(ev);
    }
    if (!out.empty()) timeout_ms = 0;
    struct epoll_event events[128];
    const int n = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
    for (int i = 0; i < n; ++i) {  // n < 0: EINTR, treated as a timeout
      const auto it = entries_.find(events[i].data.fd);
      if (it == entries_.end()) continue;  // removed since the wait began
      PollEvent ev;
      ev.tag = it->second.tag;
      ev.fd = events[i].data.fd;
      ev.readable = (events[i].events & EPOLLIN) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.error = (events[i].events & EPOLLERR) != 0;
      ev.hangup = (events[i].events & EPOLLHUP) != 0;
      out.push_back(ev);
    }
    return static_cast<int>(out.size());
  }
#endif
  // Portable fallback: rebuild the pollfd array each call. O(fds) per wait
  // — acceptable for the fallback; the epoll path is the scaling one.
  std::vector<struct pollfd> fds;
  fds.reserve(entries_.size());
  for (const auto& [fd, entry] : entries_) {
    struct pollfd p = {};
    p.fd = fd;
    p.events = static_cast<short>((entry.want_read ? POLLIN : 0) |
                                  (entry.want_write ? POLLOUT : 0));
    fds.push_back(p);
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n <= 0) return 0;
  for (const struct pollfd& p : fds) {
    if (p.revents == 0) continue;
    const auto it = entries_.find(p.fd);
    if (it == entries_.end()) continue;
    PollEvent ev;
    ev.tag = it->second.tag;
    ev.fd = p.fd;
    ev.readable = (p.revents & POLLIN) != 0;
    ev.writable = (p.revents & POLLOUT) != 0;
    ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
    ev.hangup = (p.revents & POLLHUP) != 0;
    out.push_back(ev);
  }
  return static_cast<int>(out.size());
}

// ------------------------------------------------------- socket helpers ----

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_tcp_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

namespace {

bool resolve_v4(const std::string& host, std::uint16_t port,
                sockaddr_in& addr, std::string* error) {
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "*") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return true;
  if (error != nullptr) {
    *error = "cannot parse address '" + host + "' (dotted IPv4 expected)";
  }
  return false;
}

}  // namespace

int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port, std::string* error) {
  sockaddr_in addr;
  if (!resolve_v4(host, port, addr, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 512) != 0 || !set_nonblocking(fd)) {
    if (error != nullptr) {
      *error = "bind/listen " + host + ":" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound = {};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* error) {
  sockaddr_in addr;
  const std::string target = host.empty() ? "127.0.0.1" : host;
  if (!resolve_v4(target, port, addr, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) {
      *error = "connect " + target + ":" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  set_tcp_nodelay(fd);
  return fd;
}

}  // namespace reconf::net
