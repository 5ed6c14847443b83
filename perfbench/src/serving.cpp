// The two serving workloads: reconf_serve --listen driven over TCP
// (tcp-small-unique) and reconf_serve over stdin/stdout (stdio-paper-mix).
// The server runs with its default flags plus deployment settings only.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "analysis/engine.hpp"
#include "inputs.hpp"
#include "net/poller.hpp"
#include "svc/codec.hpp"
#include "workloads.hpp"

namespace perfbench {

void add_latency_metrics(LoopStats& loop, MetricSink& sink) {
  const Summary s = windowed_summary(loop.latency_us);
  sink.add("lat_p50_us", s.p50, "us");
  sink.add("lat_p99_us", s.p99, "us");
}

void add_client_metrics(LoopStats& loop, MetricSink& sink) {
  sink.add("client.late_p99_us", summarize(loop.late_us).p99, "us");
  sink.add("client.backlog_max", static_cast<double>(loop.backlog_max),
           "count");
}

void add_serve_metrics(const ServeLoad& load, MetricSink& sink) {
  sink.add("serve.cpu_us_per_req", load.cpu_us_per_req, "us");
  sink.add("serve.hottest_thread_busy", load.hottest_thread_busy, "ratio");
  sink.add("serve.ctx_switches_per_req", load.ctx_switches_per_req, "count");
}

namespace {

using reconf::svc::LineStatus;
using reconf::svc::StreamFramer;

/// Client connections (and threads) for both TCP phases.
constexpr unsigned kConnections = 2;
/// Open-loop send rate: a quarter of what the default server sustains on a
/// 4-core host (about 100k req/s), so latency reflects service time rather
/// than a queue that a slow spell on a shared host lets grow.
constexpr double kTcpRate = 25'000.0;
/// Saturating phase: responses a connection may owe before it pauses.
constexpr std::uint64_t kWindow = 512;
/// Server sessions per run. The scheduler settles each server's threads
/// differently, and one session would report that one placement.
constexpr int kTcpSessions = 6;
/// stdio runs are cut into this many slots of closed loop, then passes.
constexpr int kStdioSlots = 5;
/// Each session's window phase is cut into this many equal rate windows.
constexpr std::size_t kRateWindowsPerSession = 5;
/// Distinct sets sent before timing: fills the 65,536-entry default cache,
/// so every timed insert evicts.
constexpr std::uint64_t kWarmupRequests = 80'000;

/// stdio-paper-mix log size; half its lines repeat an earlier set, so the
/// working set (~20k sets) stays well under the default cache capacity.
constexpr std::size_t kLogLines = 40'000;

constexpr std::int64_t kPhaseTimeoutNs = 60'000'000'000;

bool id_matches(const std::string& line, std::uint64_t id) {
  char prefix[40];
  const int n = std::snprintf(prefix, sizeof prefix, "{\"id\":\"%llu\"",
                              static_cast<unsigned long long>(id));
  return line.compare(0, static_cast<std::size_t>(n), prefix) == 0;
}

// ------------------------------------------------------------------ TCP --

/// One connection's share of a phase. Open loop when interval_ns > 0: the
/// connection's j-th request is global request k = j * conns + index, due
/// at t0 + k * interval. Otherwise a window loop until `end_ns` (or
/// `count` requests).
struct TcpPhase {
  std::int64_t t0 = 0;
  std::int64_t interval_ns = 0;
  std::int64_t end_ns = INT64_MAX;
  std::uint64_t count = UINT64_MAX;
  /// Window loop: responses are counted per window of this length since t0.
  std::int64_t window_ns = 0;
  std::uint64_t first_g = 0;
  unsigned index = 0;
  unsigned conns = kConnections;

  [[nodiscard]] std::uint64_t g(std::uint64_t j) const {
    return first_g + j * conns;
  }
};

struct TcpConn {
  std::vector<Code> codes;  ///< by request order on this connection
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<std::uint64_t> per_window;  ///< responses per rate window
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t id_mismatches = 0;
  std::string error;
};

void drive_tcp(int fd, const UniqueSets& sets, const TcpPhase& ph,
               std::atomic<std::int64_t>& outstanding, TcpConn& run) {
  const PinToLastCpu pin;
  tighten_timer_slack();
  const bool open = ph.interval_ns > 0;
  const std::int64_t give_up =
      (open ? ph.t0 : now_ns()) + kPhaseTimeoutNs +
      (ph.end_ns == INT64_MAX ? 0 : ph.end_ns - now_ns());
  StreamFramer framer;
  std::string out;
  std::size_t off = 0;
  char buf[64 * 1024];
  std::string line;
  LineStatus status;
  auto due_of = [&](std::uint64_t j) {
    return ph.t0 + static_cast<std::int64_t>(j * ph.conns + ph.index) *
                       ph.interval_ns;
  };
  for (;;) {
    std::int64_t now = now_ns();
    if (now > give_up) {
      run.error = "phase timed out";
      return;
    }
    bool progressed = false;
    if (off == out.size()) {
      out.clear();
      off = 0;
      std::int64_t added = 0;
      while (run.sent < ph.count && out.size() < 16 * 1024) {
        if (open) {
          const std::int64_t due = due_of(run.sent);
          if (due > now) break;
          run.late_us.push_back(static_cast<double>(now - due) * 1e-3);
        } else if (now >= ph.end_ns || run.sent - run.received >= kWindow) {
          break;
        }
        sets.append_line(ph.g(run.sent), out);
        ++run.sent;
        ++added;
      }
      if (added > 0) {
        const std::int64_t owed = outstanding.fetch_add(added) + added;
        run.backlog_max =
            std::max(run.backlog_max, static_cast<std::uint64_t>(owed));
      }
    }
    while (off < out.size()) {
      const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        progressed = true;
      } else if (errno == EAGAIN || errno == EINTR) {
        break;
      } else {
        run.error = std::string("write: ") + std::strerror(errno);
        return;
      }
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      const std::int64_t arrival = now_ns();
      progressed = true;
      framer.feed(buf, static_cast<std::size_t>(n));
      while (framer.next(line, status)) {
        if (run.received >= run.sent) {
          run.error = "more responses than requests";
          return;
        }
        if (!id_matches(line, ph.g(run.received))) ++run.id_mismatches;
        run.codes.push_back(response_code(line));
        if (open) {
          run.latency_us.push_back(
              static_cast<double>(arrival - due_of(run.received)) * 1e-3);
        } else if (ph.window_ns > 0) {
          const auto w =
              static_cast<std::size_t>((arrival - ph.t0) / ph.window_ns);
          if (run.per_window.size() <= w) run.per_window.resize(w + 1);
          ++run.per_window[w];
        }
        ++run.received;
        outstanding.fetch_sub(1);
      }
    } else if (n == 0) {
      run.error = "server closed the connection";
      return;
    } else if (errno != EAGAIN && errno != EINTR) {
      run.error = std::string("read: ") + std::strerror(errno);
      return;
    }
    now = now_ns();
    const bool sending_done =
        run.sent >= ph.count || (!open && now >= ph.end_ns);
    if (sending_done && off == out.size() && run.received == run.sent) return;
    if (!progressed) {
      pollfd p{fd, static_cast<short>(POLLIN | (off < out.size() ? POLLOUT : 0)),
               0};
      std::int64_t wait = 1'000'000;
      if (open && run.sent < ph.count) {
        wait = std::clamp<std::int64_t>(due_of(run.sent) - now, 0, wait);
      }
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      ::ppoll(&p, 1, &ts, nullptr);
    }
  }
}

int connect_nonblocking(std::uint16_t port) {
  std::string error;
  const int fd = reconf::net::connect_tcp("127.0.0.1", port, &error);
  if (fd < 0) throw std::runtime_error(error);
  if (!reconf::net::set_nonblocking(fd)) {
    ::close(fd);
    throw std::runtime_error("cannot make socket nonblocking");
  }
  return fd;
}

/// Runs one phase on kConnections connections, one thread each.
std::vector<TcpConn> tcp_phase(std::uint16_t port, const UniqueSets& sets,
                               TcpPhase base, std::uint64_t& backlog_max) {
  std::vector<int> fds;
  for (unsigned c = 0; c < kConnections; ++c) {
    fds.push_back(connect_nonblocking(port));
  }
  if (base.interval_ns > 0) base.t0 = now_ns() + 2'000'000;
  std::vector<TcpConn> runs(kConnections);
  std::atomic<std::int64_t> outstanding{0};
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
      TcpPhase ph = base;
      ph.index = c;
      ph.first_g = base.first_g + c;
      if (base.count != UINT64_MAX) {
        ph.count = base.count / kConnections +
                   (c < base.count % kConnections ? 1 : 0);
      }
      threads.emplace_back(
          [&, ph, c] { drive_tcp(fds[c], sets, ph, outstanding, runs[c]); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int fd : fds) ::close(fd);
  for (const TcpConn& r : runs) {
    if (!r.error.empty()) throw std::runtime_error("tcp client: " + r.error);
    backlog_max = std::max(backlog_max, r.backlog_max);
  }
  return runs;
}

/// Checks every response of a phase against the oracle. Returns accepts.
std::uint64_t verify_tcp(const std::vector<TcpConn>& runs,
                         std::uint64_t first_g, const UniqueSets& sets,
                         const reconf::analysis::AnalysisEngine& engine,
                         Tally& tally) {
  std::uint64_t accepts = 0;
  for (unsigned c = 0; c < runs.size(); ++c) {
    const TcpConn& r = runs[c];
    tally.attempted += r.sent;
    tally.fail(r.id_mismatches, "responses out of order");
    std::uint64_t wrong = 0;
    for (std::size_t j = 0; j < r.codes.size(); ++j) {
      const std::uint64_t g = first_g + c + j * kConnections;
      const Code want = expected_code(engine, sets.taskset(g));
      if (r.codes[j] != want) {
        if (wrong == 0) {
          tally.notes.push_back("request " + std::to_string(g) + ": got " +
                                to_string(r.codes[j]) + ", want " +
                                to_string(want));
        }
        ++wrong;
      }
      accepts += want == Code::kReject ? 0 : 1;
    }
    tally.fail(wrong, "wrong verdicts");
    tally.fail(r.sent - r.codes.size(), "missing responses");
  }
  return accepts;
}

std::uint16_t wait_port(const std::string& port_file, pid_t pid) {
  const std::int64_t give_up = now_ns() + 20'000'000'000;
  while (now_ns() < give_up) {
    std::ifstream in(port_file);
    std::string text;
    if (std::getline(in, text) && !in.eof()) {
      return static_cast<std::uint16_t>(std::stoi(text));
    }
    if (::kill(pid, 0) != 0) break;
    sleep_until_ns(now_ns() + 100'000);
  }
  throw std::runtime_error("server did not report its port");
}

std::vector<std::string> tcp_server_argv(const RunOptions& opt,
                                         const std::string& port_file) {
  return {opt.serve_path, "--listen=127.0.0.1:0", "--port-file=" + port_file};
}

/// Launch until the first request is answered, over TCP.
double tcp_setup_once(const RunOptions& opt, const UniqueSets& sets,
                      std::uint64_t g,
                      const reconf::analysis::AnalysisEngine& engine,
                      Tally& tally) {
  const std::string port_file = opt.out_dir + "/setup.port";
  std::remove(port_file.c_str());
  const std::int64_t t0 = now_ns();
  Child child = spawn(tcp_server_argv(opt, port_file), false, false);
  double seconds = 0.0;
  try {
    const std::uint16_t port = wait_port(port_file, child.pid);
    std::string error;
    const int fd = reconf::net::connect_tcp("127.0.0.1", port, &error);
    if (fd < 0) throw std::runtime_error(error);
    std::string req;
    sets.append_line(g, req);
    std::string resp;
    bool ok = ::write(fd, req.data(), req.size()) ==
              static_cast<ssize_t>(req.size());
    char c = 0;
    while (ok && ::read(fd, &c, 1) == 1 && c != '\n') resp += c;
    seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    ::close(fd);
    ++tally.attempted;
    if (response_code(resp) != expected_code(engine, sets.taskset(g))) {
      tally.fail(1, "set-up request answered wrongly: " + resp);
    }
  } catch (...) {
    finish(child, true);
    throw;
  }
  if (finish(child, true) != 0) tally.fail(1, "server exit status non-zero");
  return seconds;
}

}  // namespace

void run_tcp_small_unique(const RunOptions& opt, RunResult& out) {
  const UniqueSets sets(opt.seed);
  const reconf::analysis::AnalysisEngine engine(
      reconf::analysis::fast_any_request());
  const std::string port_file = opt.out_dir + "/serve.port";

  std::vector<double> setups;
  if (!opt.trace) {
    for (int i = 0; i < kSetupLaunches; ++i) {
      setups.push_back(tcp_setup_once(opt, sets, static_cast<std::uint64_t>(i),
                                      engine, out.tally));
    }
  }

  // kTcpSessions short server sessions, each warmed up to a full cache.
  out.server_command = tcp_server_argv(opt, port_file);
  const double open_s = 0.4 * opt.seconds / kTcpSessions;
  const double sat_s = 0.6 * opt.seconds / kTcpSessions;
  const auto open_count = static_cast<std::uint64_t>(kTcpRate * open_s);
  LoopStats ol;
  std::vector<double> window_rps;
  std::vector<double> rss;
  ServeLoad load_sum;
  std::uint64_t accepts = 0;
  for (int session = 0; session < kTcpSessions; ++session) {
    std::remove(port_file.c_str());
    Child server = spawn(out.server_command, false, false);
    try {
      const std::uint16_t port = wait_port(port_file, server.pid);
      std::uint64_t ignored = 0;

      TcpPhase warm;
      warm.first_g = 0;
      warm.count = kWarmupRequests;
      const auto warm_runs = tcp_phase(port, sets, warm, ignored);

      TcpPhase open;
      open.first_g = kWarmupRequests;
      open.interval_ns = static_cast<std::int64_t>(1e9 / kTcpRate);
      open.count = open_count;
      const auto open_runs = tcp_phase(port, sets, open, ol.backlog_max);

      TcpPhase sat;
      sat.first_g = kWarmupRequests + open_count;
      const auto before = read_threads(server.pid);
      sat.t0 = now_ns();
      sat.end_ns = sat.t0 + static_cast<std::int64_t>(sat_s * 1e9);
      sat.window_ns = (sat.end_ns - sat.t0) /
                      static_cast<std::int64_t>(kRateWindowsPerSession);
      const auto sat_runs = tcp_phase(port, sets, sat, ignored);
      const double wall = static_cast<double>(now_ns() - sat.t0) * 1e-9;
      const auto after = read_threads(server.pid);
      rss.push_back(peak_rss_mb(server.pid));

      verify_tcp(warm_runs, warm.first_g, sets, engine, out.tally);
      accepts = verify_tcp(open_runs, open.first_g, sets, engine, out.tally);
      verify_tcp(sat_runs, sat.first_g, sets, engine, out.tally);

      std::uint64_t sat_done = 0;
      std::vector<double> rps(kRateWindowsPerSession, 0.0);
      for (const TcpConn& r : sat_runs) {
        sat_done += r.received;
        for (std::size_t w = 0;
             w < std::min(kRateWindowsPerSession, r.per_window.size()); ++w) {
          rps[w] += static_cast<double>(r.per_window[w]) /
                    (static_cast<double>(sat.window_ns) * 1e-9);
        }
      }
      window_rps.insert(window_rps.end(), rps.begin(), rps.end());
      const ServeLoad load =
          serve_load(before, after, wall, static_cast<double>(sat_done));
      load_sum.cpu_us_per_req += load.cpu_us_per_req / kTcpSessions;
      load_sum.hottest_thread_busy += load.hottest_thread_busy / kTcpSessions;
      load_sum.ctx_switches_per_req += load.ctx_switches_per_req / kTcpSessions;

      // Back into due order: request k went out on connection k % conns.
      const std::size_t base = ol.latency_us.size();
      ol.latency_us.resize(base + open_count);
      for (unsigned c = 0; c < open_runs.size(); ++c) {
        const TcpConn& r = open_runs[c];
        for (std::size_t j = 0; j < r.latency_us.size(); ++j) {
          ol.latency_us[base + j * kConnections + c] = r.latency_us[j];
        }
        ol.late_us.insert(ol.late_us.end(), r.late_us.begin(),
                          r.late_us.end());
      }
    } catch (...) {
      finish(server, true);
      throw;
    }
    if (finish(server, true) != 0) {
      out.tally.fail(1, "server exit status non-zero");
    }
  }

  if (opt.trace) {
    add_serve_metrics(load_sum, out.metrics);
    add_client_metrics(ol, out.metrics);
    add_latency_metrics(ol, out.metrics);
  } else {
    out.metrics.add("setup_s", median(setups), "s");
    out.metrics.add("req_per_s", interquartile_mean(window_rps), "1/s");
    add_latency_metrics(ol, out.metrics);
    out.metrics.add("peak_rss_mb", median(rss), "MB");
    out.metrics.add("admit_rate",
                    static_cast<double>(accepts) /
                        static_cast<double>(std::max<std::uint64_t>(1, open_count)),
                    "ratio");
  }

  if (opt.trace) {
    LayerInputs in;
    in.prefill_cache = true;
    // The open-loop phase's first sets.
    for (std::uint64_t g = kWarmupRequests; g < kWarmupRequests + kMaxLayerInputs; ++g) {
      std::string line;
      sets.append_line(g, line);
      line.pop_back();
      in.lines.push_back(std::move(line));
    }
    in.scenarios = make_scenarios(opt.seed, 30, 40);
    run_layers(in, opt.out_dir + "/tcp-small-unique.trace.json", out.metrics,
               out.tally);
  }
}

// ---------------------------------------------------------------- stdio --

namespace {

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads response lines from `fd` until `count` arrived or EOF; `on_line`
/// gets (index, line, arrival_ns).
template <typename OnLine>
std::uint64_t read_lines(int fd, std::uint64_t count, OnLine on_line) {
  StreamFramer framer;
  char buf[64 * 1024];
  std::string line;
  LineStatus status;
  std::uint64_t got = 0;
  while (got < count) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const std::int64_t arrival = now_ns();
    framer.feed(buf, static_cast<std::size_t>(n));
    while (got < count && framer.next(line, status)) {
      on_line(got, line, arrival);
      ++got;
    }
  }
  return got;
}

std::vector<std::string> stdio_server_argv(const RunOptions& opt) {
  return {opt.serve_path};
}

/// Compares one pass's response codes with the oracle.
void verify_stdio(const std::vector<Code>& codes, std::uint64_t sent,
                  const PaperLog& log, std::uint64_t id_mismatches,
                  Tally& tally) {
  tally.attempted += sent;
  tally.fail(id_mismatches, "responses out of order");
  std::uint64_t wrong = 0;
  for (std::size_t k = 0; k < codes.size(); ++k) {
    const Code want = log.expected[log.set_of[k % log.lines.size()]];
    if (codes[k] != want) {
      if (wrong == 0) {
        tally.notes.push_back("line " + std::to_string(k) + ": got " +
                              to_string(codes[k]) + ", want " +
                              to_string(want));
      }
      ++wrong;
    }
  }
  tally.fail(wrong, "wrong verdicts");
  tally.fail(sent - codes.size(), "missing responses");
}

/// One closed-loop slice on a fresh server: log lines from the start, one
/// outstanding, for `duration_ns`. Each line is due when the previous
/// answer arrived. The first line only waits out the server's start-up,
/// which setup_s measures, and is not timed.
void stdio_closed_loop(const std::vector<std::string>& argv,
                       const PaperLog& log, std::int64_t duration_ns,
                       LoopStats& loop, Tally& tally) {
  const PinToLastCpu pin;
  const std::size_t lines = log.lines.size();
  Child child = spawn(argv, true, true);
  StreamFramer framer;
  char buf[64 * 1024];
  std::string line;
  LineStatus status;
  std::vector<Code> codes;
  std::uint64_t mismatches = 0;
  std::uint64_t sent = 0;
  std::int64_t due = 0;
  std::int64_t stop_at = 0;
  loop.backlog_max = std::max<std::uint64_t>(loop.backlog_max, 1);
  for (;;) {
    if (sent > 0 && due >= stop_at) break;
    const std::int64_t send = now_ns();
    if (sent > 0) loop.late_us.push_back(static_cast<double>(send - due) * 1e-3);
    const std::string& l = log.lines[sent % lines];
    if (!write_all(child.stdin_fd, l.data(), l.size()) ||
        !write_all(child.stdin_fd, "\n", 1)) {
      break;
    }
    ++sent;
    bool answered = false;
    while (!answered) {
      if (framer.next(line, status)) {
        answered = true;
        break;
      }
      const ssize_t n = ::read(child.stdout_fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      framer.feed(buf, static_cast<std::size_t>(n));
    }
    if (!answered) break;
    const std::int64_t arrival = now_ns();
    if (!id_matches(line, (sent - 1) % lines)) ++mismatches;
    codes.push_back(response_code(line));
    if (sent == 1) {
      stop_at = arrival + duration_ns;
    } else {
      loop.latency_us.push_back(static_cast<double>(arrival - due) * 1e-3);
    }
    due = arrival;
  }
  if (finish(child, false) != 0) {
    tally.fail(1, "server exit status non-zero");
  }
  verify_stdio(codes, sent, log, mismatches, tally);
}

/// One whole-log pass on a fresh server; returns its lines per second.
double stdio_pass(const std::vector<std::string>& argv, const PaperLog& log,
                  const std::string& whole, ServeLoad& load_sum,
                  std::vector<double>& rss, Tally& tally) {
  const std::size_t lines = log.lines.size();
  Child child = spawn(argv, true, true);
  const auto before = read_threads(child.pid);
  const std::int64_t t0 = now_ns();
  bool write_ok = true;
  std::thread writer([&] {
    const PinToLastCpu pin;
    write_ok = write_all(child.stdin_fd, whole.data(), whole.size());
  });
  std::vector<Code> codes;
  codes.reserve(lines);
  std::uint64_t mismatches = 0;
  std::int64_t last = t0;
  std::thread reader([&] {
    const PinToLastCpu pin;
    read_lines(child.stdout_fd, lines,
               [&](std::uint64_t k, const std::string& line, std::int64_t at) {
                 if (!id_matches(line, k)) ++mismatches;
                 codes.push_back(response_code(line));
                 last = at;
               });
  });
  reader.join();
  writer.join();
  const double wall = static_cast<double>(last - t0) * 1e-9;
  const ServeLoad load = serve_load(before, read_threads(child.pid), wall,
                                    static_cast<double>(lines));
  load_sum.cpu_us_per_req += load.cpu_us_per_req;
  load_sum.hottest_thread_busy += load.hottest_thread_busy;
  load_sum.ctx_switches_per_req += load.ctx_switches_per_req;
  rss.push_back(peak_rss_mb(child.pid));
  if (finish(child, false) != 0) {
    tally.fail(1, "server exit status non-zero");
  }
  if (!write_ok) tally.fail(1, "server stopped reading its input");
  verify_stdio(codes, lines, log, mismatches, tally);
  return static_cast<double>(codes.size()) / wall;
}

}  // namespace

void run_stdio_paper_mix(const RunOptions& opt, RunResult& out) {
  const PaperLog log = make_paper_log(opt.seed, kLogLines);
  const std::size_t lines = log.lines.size();
  std::string whole;
  for (const std::string& l : log.lines) {
    whole += l;
    whole += '\n';
  }
  out.server_command = stdio_server_argv(opt);

  std::vector<double> setups;
  if (!opt.trace) {
    for (int i = 0; i < kSetupLaunches; ++i) {
      const std::int64_t t0 = now_ns();
      Child child = spawn(out.server_command, true, true);
      const std::string first = log.lines[0] + "\n";
      std::vector<Code> codes;
      if (write_all(child.stdin_fd, first.data(), first.size())) {
        read_lines(child.stdout_fd, 1,
                   [&](std::uint64_t, const std::string& line, std::int64_t) {
                     codes.push_back(response_code(line));
                   });
      }
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (finish(child, false) != 0) {
        out.tally.fail(1, "server exit status non-zero");
      }
      verify_stdio(codes, 1, log, 0, out.tally);
    }
  }

  // kStdioSlots slots, each a closed-loop slice on a fresh server that
  // replays the log from its start, then whole-log passes on fresh servers
  // (cold caches) for the rest of the slot. Interleaving spreads both
  // measurements over the whole run. A closed loop keeps the server's
  // threads from idling between lines: at a low open-loop rate, wake-ups
  // from idle dominate and swing widely on a shared host.
  LoopStats ol;
  std::vector<double> pass_rps;
  std::vector<double> rss;
  ServeLoad load_sum;
  const double slot_s = opt.seconds / kStdioSlots;
  for (int slot = 0; slot < kStdioSlots; ++slot) {
    const std::int64_t slot_end =
        now_ns() + static_cast<std::int64_t>(slot_s * 1e9);
    stdio_closed_loop(out.server_command, log,
                      static_cast<std::int64_t>(0.5 * slot_s * 1e9), ol,
                      out.tally);
    std::int64_t last_pass = 0;
    do {
      const std::int64_t t = now_ns();
      pass_rps.push_back(
          stdio_pass(out.server_command, log, whole, load_sum, rss, out.tally));
      last_pass = now_ns() - t;
    } while (now_ns() + last_pass <= slot_end);
  }

  if (opt.trace) {
    const double passes = static_cast<double>(pass_rps.size());
    load_sum.cpu_us_per_req /= passes;
    load_sum.hottest_thread_busy /= passes;
    load_sum.ctx_switches_per_req /= passes;
    add_serve_metrics(load_sum, out.metrics);
    add_client_metrics(ol, out.metrics);
    add_latency_metrics(ol, out.metrics);
    LayerInputs in;
    in.lines.assign(log.lines.begin(),
                    log.lines.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::min(lines, kMaxLayerInputs)));
    in.scenarios = make_scenarios(opt.seed, 30, 40);
    run_layers(in, opt.out_dir + "/stdio-paper-mix.trace.json", out.metrics,
               out.tally);
  } else {
    std::uint64_t accepts = 0;
    for (std::uint32_t s : log.set_of) {
      accepts += log.expected[s] == Code::kReject ? 0 : 1;
    }
    out.metrics.add("setup_s", median(setups), "s");
    out.metrics.add("req_per_s", interquartile_mean(pass_rps), "1/s");
    add_latency_metrics(ol, out.metrics);
    out.metrics.add("peak_rss_mb", median(rss), "MB");
    out.metrics.add("admit_rate",
                    static_cast<double>(accepts) / static_cast<double>(lines),
                    "ratio");
  }
}

}  // namespace perfbench
