#pragma once

// Shared measurement plumbing for the benchmark driver: clocks, exact
// percentiles, the metric sink, child-process control and /proc sampling.

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); only differences are meaningful.
[[nodiscard]] std::int64_t now_ns();

/// Sleeps until `deadline_ns` on the now_ns() clock.
void sleep_until_ns(std::int64_t deadline_ns);

/// Reduces timer slack so sleeps to a send schedule wake within
/// microseconds, not the default 50 µs.
void tighten_timer_slack();

/// Pins the calling thread to the last CPU for its lifetime, then restores
/// the previous mask. Client threads use it so the load generator stays on
/// one core and the server keeps the rest, instead of the scheduler mixing
/// them differently from run to run.
class PinToLastCpu {
 public:
  PinToLastCpu();
  ~PinToLastCpu();
  PinToLastCpu(const PinToLastCpu&) = delete;
  PinToLastCpu& operator=(const PinToLastCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Median and 99th percentile of a sample, exact by rank, with its size.
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
};

/// Sorts `samples` in place.
[[nodiscard]] Summary summarize(std::vector<double>& samples);

[[nodiscard]] double median(std::vector<double> values);

/// Mean of the middle half of `values` (interquartile mean): steady against
/// both outliers and a few windows stuck in a slow state.
[[nodiscard]] double interquartile_mean(std::vector<double> values);

/// Samples per latency window: p99 of a window leaves 10 samples above it.
inline constexpr std::size_t kWindowSamples = 1000;

/// Splits `samples` (in time order) into consecutive windows of
/// kWindowSamples and returns the median over windows of each window's p50
/// and p99, with the total sample count. A stall then moves a few windows,
/// not the reported figure.
[[nodiscard]] Summary windowed_summary(const std::vector<double>& samples);

/// Ordered (name, value, unit) metrics, printed as the "metrics" object of
/// the result line.
class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds NAME.p50, NAME.p99 (in `unit`) and NAME.n (count).
  void add_summary(const std::string& name, const Summary& s,
                   const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Outcome tally shared by every workload: `failed` counts wrong verdicts,
/// error/shed/missing responses and invariant violations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first few failure descriptions

  void fail(std::uint64_t count, const std::string& what);
};

/// A spawned child with optional pipes to its stdin / from its stdout.
struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< write end, or -1
  int stdout_fd = -1;  ///< read end, or -1
};

/// Starts `argv` (argv[0] is a path). Unpiped stdin/stdout go to /dev/null;
/// stderr is inherited. Throws std::runtime_error on failure.
[[nodiscard]] Child spawn(const std::vector<std::string>& argv,
                          bool pipe_stdin, bool pipe_stdout);

/// Closes the child's pipes, sends SIGTERM when `terminate`, and reaps it.
/// Returns the exit code (128 + signal when killed).
int finish(Child& child, bool terminate);

/// Shell-style rendering of an argv, for the host record.
[[nodiscard]] std::string join_command(const std::vector<std::string>& argv);

/// Per-thread CPU and context-switch counters of a process, read from
/// /proc/<pid>/task/*; no cooperation from the process is needed.
struct ThreadCounters {
  std::int64_t cpu_ns = 0;
  std::uint64_t ctx_switches = 0;
};
[[nodiscard]] std::map<int, ThreadCounters> read_threads(pid_t pid);

/// Derived server-side load figures between two read_threads() samples.
struct ServeLoad {
  double cpu_us_per_req = 0.0;
  double hottest_thread_busy = 0.0;  ///< max per-thread CPU / wall
  double ctx_switches_per_req = 0.0;
};
[[nodiscard]] ServeLoad serve_load(const std::map<int, ThreadCounters>& before,
                                   const std::map<int, ThreadCounters>& after,
                                   double wall_s, double requests);

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// Writes `text` to `path` (throws on failure).
void write_file(const std::string& path, std::string_view text);

}  // namespace perfbench
