#include "harness.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t deadline_ns) {
  // steady_clock is CLOCK_MONOTONIC on Linux, so an absolute sleep on it
  // lands on the same timeline as now_ns().
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

PinToLastCpu::PinToLastCpu() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 1 ||
      pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpus - 1), &set);
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

PinToLastCpu::~PinToLastCpu() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
}

Summary summarize(std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto rank = [&](double p) {
    const auto r = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    return samples[std::min(samples.size() - 1, r == 0 ? 0 : r - 1)];
  };
  s.p50 = rank(0.50);
  s.p99 = rank(0.99);
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 4;
  const std::size_t hi = values.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

Summary windowed_summary(const std::vector<double>& samples) {
  const std::size_t windows =
      std::max<std::size_t>(1, samples.size() / kWindowSamples);
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> chunk(
        samples.begin() +
            static_cast<std::ptrdiff_t>(w * samples.size() / windows),
        samples.begin() +
            static_cast<std::ptrdiff_t>((w + 1) * samples.size() / windows));
    const Summary s = summarize(chunk);
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  Summary out;
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  out.n = samples.size();
  return out;
}

void MetricSink::add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void MetricSink::add_summary(const std::string& name, const Summary& s,
                             const std::string& unit) {
  add(name + ".p50", s.p50, unit);
  add(name + ".p99", s.p99, unit);
  add(name + ".n", static_cast<double>(s.n), "count");
}

std::string MetricSink::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // Every digit as measured: %.17g round-trips a double exactly.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

void Tally::fail(std::uint64_t count, const std::string& what) {
  if (count == 0) return;
  failed += count;
  if (notes.size() < 8) notes.push_back(what);
}

Child spawn(const std::vector<std::string>& argv, bool pipe_stdin,
            bool pipe_stdout) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if ((pipe_stdin && ::pipe2(in_pipe, O_CLOEXEC) != 0) ||
      (pipe_stdout && ::pipe2(out_pipe, O_CLOEXEC) != 0)) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipe_stdin) {
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  }
  if (pipe_stdout) {
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_stdin) ::close(in_pipe[0]);
  if (pipe_stdout) ::close(out_pipe[1]);
  if (rc != 0) {
    if (pipe_stdin) ::close(in_pipe[1]);
    if (pipe_stdout) ::close(out_pipe[0]);
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  Child child;
  child.pid = pid;
  child.stdin_fd = pipe_stdin ? in_pipe[1] : -1;
  child.stdout_fd = pipe_stdout ? out_pipe[0] : -1;
  return child;
}

int finish(Child& child, bool terminate) {
  if (child.stdin_fd >= 0) ::close(child.stdin_fd);
  child.stdin_fd = -1;
  if (child.pid <= 0) return -1;
  if (terminate) ::kill(child.pid, SIGTERM);
  // Drain stdout so a child blocked on a full pipe can reach its exit.
  if (child.stdout_fd >= 0) {
    char buf[65536];
    while (::read(child.stdout_fd, buf, sizeof buf) > 0) {
    }
    ::close(child.stdout_fd);
    child.stdout_fd = -1;
  }
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  child.pid = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string join_command(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& a : argv) {
    if (!out.empty()) out += ' ';
    out += a;
  }
  return out;
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t status_field(const std::string& status, const char* key) {
  const std::size_t at = status.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

std::map<int, ThreadCounters> read_threads(pid_t pid) {
  std::map<int, ThreadCounters> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const std::string base = dir + "/" + e->d_name;
    ThreadCounters c;
    // schedstat's first field is on-CPU time in nanoseconds.
    c.cpu_ns = std::strtoll(slurp(base + "/schedstat").c_str(), nullptr, 10);
    const std::string status = slurp(base + "/status");
    c.ctx_switches = status_field(status, "\nvoluntary_ctxt_switches:") +
                     status_field(status, "\nnonvoluntary_ctxt_switches:");
    out[std::atoi(e->d_name)] = c;
  }
  ::closedir(d);
  return out;
}

ServeLoad serve_load(const std::map<int, ThreadCounters>& before,
                     const std::map<int, ThreadCounters>& after, double wall_s,
                     double requests) {
  std::int64_t cpu = 0;
  std::int64_t hottest = 0;
  std::uint64_t switches = 0;
  for (const auto& [tid, end] : after) {
    const auto it = before.find(tid);
    const ThreadCounters start = it == before.end() ? ThreadCounters{} : it->second;
    const std::int64_t d = end.cpu_ns - start.cpu_ns;
    cpu += d;
    hottest = std::max(hottest, d);
    switches += end.ctx_switches - start.ctx_switches;
  }
  ServeLoad load;
  if (requests > 0) {
    load.cpu_us_per_req = static_cast<double>(cpu) * 1e-3 / requests;
    load.ctx_switches_per_req = static_cast<double>(switches) / requests;
  }
  if (wall_s > 0) {
    load.hottest_thread_busy = static_cast<double>(hottest) * 1e-9 / wall_s;
  }
  return load;
}

double peak_rss_mb(pid_t pid) {
  const std::string status =
      slurp("/proc/" + std::to_string(pid) + "/status");
  return static_cast<double>(status_field(status, "\nVmHWM:")) / 1024.0;
}

void write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
