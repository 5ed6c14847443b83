#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace reconf::net {

/// Readiness event for one registered fd. `tag` is the caller's opaque
/// cookie from add() — the server uses connection ids, never raw fds, so a
/// closed-and-reused fd can't be confused with its predecessor. `fd` tells
/// the two fds of a connection with separate input and output apart.
struct PollEvent {
  std::uint64_t tag = 0;
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error condition (a write end whose reader is gone, an invalid fd).
  /// Delivered even when the caller asked for neither direction.
  bool error = false;
  /// Hangup: a socket with both directions shut, or a pipe whose writer
  /// closed — which may still hold data to read up to EOF. Also delivered
  /// regardless of the interest set.
  bool hangup = false;
};

/// Level-triggered readiness poller: epoll on Linux, portable poll(2)
/// everywhere else (and on Linux when RECONF_NET_POLL=1 is set in the
/// environment — the integration tests exercise both backends). Level
/// triggering is deliberate: the server's read/write loops may stop early
/// (bounded work per tick, flow control), and a level-triggered poller
/// simply reports the fd again instead of requiring the drain-to-EAGAIN
/// discipline edge triggering imposes.
///
/// Regular files and /dev/null cannot be registered with epoll (EPERM);
/// they are always ready, so the poller reports them ready on every wait —
/// without sleeping — while they have interest, exactly as poll(2) does.
///
/// Not thread-safe: one thread owns each Poller.
class Poller {
 public:
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd` with interest in read and/or write readiness.
  void add(int fd, std::uint64_t tag, bool want_read, bool want_write);

  /// Changes the interest set of a registered fd.
  void update(int fd, bool want_read, bool want_write);

  /// Deregisters `fd`. Safe to call right before closing it.
  void remove(int fd);

  /// Waits up to `timeout_ms` (-1 = forever) and appends ready events to
  /// `out` (cleared first). Returns the number of events, 0 on timeout.
  /// EINTR is treated as a timeout — the caller's loop re-checks its stop
  /// flag either way.
  int wait(std::vector<PollEvent>& out, int timeout_ms);

  /// "epoll" or "poll" — surfaced in logs and the stats snapshot.
  [[nodiscard]] const char* backend() const noexcept;

 private:
  struct Entry {
    std::uint64_t tag = 0;
    bool want_read = false;
    bool want_write = false;
  };

  bool use_epoll_ = false;
  int epoll_fd_ = -1;
  std::unordered_map<int, Entry> entries_;  ///< fd -> interest (both backends)
  std::vector<int> always_ready_;  ///< epoll refused these fds (EPERM)
};

// ------------------------------------------------------- socket helpers ----

/// Marks `fd` nonblocking. Returns false on fcntl failure.
bool set_nonblocking(int fd);

/// Disables Nagle on a TCP socket (best effort; harmless on failure).
void set_tcp_nodelay(int fd);

/// Creates a nonblocking listening TCP socket bound to `host:port`
/// (SO_REUSEADDR; port 0 picks an ephemeral port). Returns the fd, or -1
/// with `error` set. `bound_port` (when non-null) receives the actual port.
int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port, std::string* error);

/// Blocking TCP connect to `host:port` (the load generator and tests; the
/// returned fd is left blocking — callers flip it nonblocking as needed).
/// Returns the fd, or -1 with `error` set.
int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* error);

}  // namespace reconf::net
