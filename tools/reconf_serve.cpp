// reconf_serve — the admission-control service: answers NDJSON analysis
// requests with NDJSON verdict lines, keeping an LRU verdict cache so
// repeated tasksets skip re-analysis entirely (see src/svc/). One serving
// core (net::AsyncServer, src/net/server.hpp) behind two transports: stdio
// by default — requests from a file or stdin, answers on stdout — or TCP
// with --listen.
//
//   reconf_serve [<requests.ndjson>] [--shards=N]
//                [--cache-capacity=N] [--tests=LIST] [--fkf]
//                [--explain] [--stats]
//                [--max-queue=N] [--overload=block|shed]
//                [--request-timeout-ms=N] [--cache-snapshot=PATH]
//                [--metrics-out=PATH] [--trace-out=PATH]
//                [--listen=[HOST:]PORT] [--port-file=PATH]
//                [--io-threads=N] [--pin-cores]
//
//   --shards=N          shard workers (default 0 = cores). Requests are
//                       routed by consistent hash of their cache key, so
//                       each shard owns a private lock-free cache partition
//   --cache-capacity=N  verdict cache entries, split across the shards
//                       (default 65536); 0 disables the cache (every
//                       request re-analyzes)
//   --tests=LIST        default analyzer lineup, comma-separated registry
//                       ids (default dp,gn1,gn2); per-request "tests"
//                       override it. Unknown ids abort with the registered
//                       list.
//   --fkf               keep only the EDF-FkF-sound analyzers (drops GN1)
//   --explain           full diagnostics: evaluate through the reference
//                       evaluators and attach the per-analyzer "sub" array
//                       (sub-verdicts + timings) to every fresh response.
//                       Default is the allocation-free SoA fast path, which
//                       answers the verdict only — identical verdicts, ~an
//                       order of magnitude more throughput on misses
//   --stats             print throughput and cache statistics to stderr
//   --max-queue=N       parsed requests an io thread may have queued toward
//                       the shard workers, split evenly across its shard
//                       rings (default 4096)
//   --overload=MODE     what a full shard ring does to the connection that
//                       filled it: "block" (default) pauses reading it —
//                       back-pressure on the pipe or socket; "shed" drops
//                       the request and answers {"id":...,"shed":"queue"}
//                       in stream order
//   --request-timeout-ms=N  per-request deadline from the moment the line is
//                       parsed; a request still unserved when its shard
//                       worker picks it up is answered
//                       {"id":...,"shed":"deadline"}
//   --cache-snapshot=PATH  warm-restore the verdict cache from PATH at
//                       startup (missing file = cold start) and write a
//                       crash-safe snapshot back to PATH at exit
//   --metrics-out=PATH  at exit, write every registered metric in the
//                       Prometheus text exposition format to PATH
//                       ("-" = stderr) — the file a scraper's textfile
//                       collector picks up
//   --trace-out=PATH    record spans (engine runs, analyzer invocations,
//                       cache lookups) for the whole process and write
//                       Chrome trace-event JSON to PATH at exit; load it in
//                       Perfetto (ui.perfetto.dev) or chrome://tracing
//   --listen=[HOST:]PORT  serve TCP connections instead of stdio. PORT 0
//                       binds an ephemeral port (printed on stderr as
//                       "listening on HOST:PORT ..."). Runs until SIGINT or
//                       SIGTERM
//   --port-file=PATH    after binding, write the actual port to PATH —
//                       how scripts pair --listen=127.0.0.1:0 with a
//                       reconf_loadgen --port=$(cat PATH)
//   --io-threads=N      event-loop threads framing and parsing (default 1).
//                       TCP connections are spread over them; stdio is one
//                       connection, served by the first
//   --pin-cores         pin shard workers to cores via
//                       pthread_setaffinity_np; a no-op off Linux. Pinned
//                       ids surface in the reconf_net_shard_cpu gauges
//
// The io threads run a level-triggered epoll loop (poll(2) fallback;
// RECONF_NET_POLL=1 forces it). stdin may be a pipe, a terminal, a socket,
// a regular file or /dev/null, and stdout a pipe or a file; both get their
// original file-status flags back at exit. Responses come back in request
// order for any --shards/--io-threads combination.
//
// A request line of {"id":"...","stats":true} is answered in stream order
// with a live metrics snapshot ({"id":...,"stats":{...}}) instead of a
// verdict: per-analyzer verdict counters and latency percentiles, cache
// hit/miss/imbalance gauges, serving-core gauges — see
// src/svc/stats_surface.hpp.
//
// Request/response format: see src/svc/codec.hpp. Malformed lines produce
// an {"id":...,"error":...} response and the stream continues — one bad
// client request must not take down the verdict service. Lines beyond the
// codec's 1 MiB cap are drained with bounded memory and answered with an
// error carrying a best-effort id. A final line without a trailing newline
// is still served.
//
// stdio mode ends once stdin is drained and every answer is written, or
// when the stdout reader goes away. SIGINT/SIGTERM shut down gracefully in
// both modes: reading stops, every request already parsed is answered,
// metrics / trace / cache-snapshot files are written, and the exit status
// is 0. SIGPIPE is ignored: a closed pipe or socket ends that connection,
// never the process.
//
//   $ echo '{"id":"q","device":100,"tasks":[{"c":126,"a":9,...}]}' | ./reconf_serve --stats

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/engine.hpp"
#include "analysis/registry.hpp"
#include "common/flags.hpp"
#include "common/stopwatch.hpp"
#include "net/poller.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/batch.hpp"
#include "svc/stats_surface.hpp"

namespace {

using namespace reconf;

/// The running server, for the signal handler: request_stop() is one
/// lock-free atomic store.
std::atomic<net::AsyncServer*> g_server{nullptr};

void on_signal(int) {
  if (net::AsyncServer* server = g_server.load()) server->request_stop();
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // A reader that went away is an EPIPE on that connection, not a kill.
  std::signal(SIGPIPE, SIG_IGN);
}

int usage() {
  std::fprintf(stderr,
               "usage: reconf_serve [<requests.ndjson>] [--shards=N]\n"
               "                    [--cache-capacity=N] [--tests=LIST] "
               "[--fkf]\n"
               "                    [--explain] [--stats]\n"
               "                    [--max-queue=N] [--overload=block|shed]\n"
               "                    [--request-timeout-ms=N] "
               "[--cache-snapshot=PATH]\n"
               "                    [--metrics-out=PATH] [--trace-out=PATH]\n"
               "                    [--listen=[HOST:]PORT] [--port-file=PATH]\n"
               "                    [--io-threads=N] [--pin-cores]\n"
               "see the header of tools/reconf_serve.cpp for details\n");
  return 2;
}

/// Resolves the configured default lineup once at startup — an unknown id
/// (engine error already lists the registered analyzers) or a lineup that
/// the scheduler restriction empties must abort here, not degrade every
/// future response.
void validate_default_lineup(const svc::BatchOptions& options) {
  try {
    const analysis::AnalysisEngine probe(options.request);
    if (probe.empty()) {
      std::fprintf(stderr,
                   "the configured --tests lineup has no analyzer sound for "
                   "the --fkf restriction; registered analyzers: %s\n",
                   analysis::AnalyzerRegistry::instance().id_list().c_str());
      std::exit(2);
    }
  } catch (const analysis::UnknownAnalyzerError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// Writes `text` to `path` ("-" = stderr); a failed open is reported but
/// does not change the exit status — the verdicts already went out.
void write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  if (path == "-") {
    std::fputs(text.c_str(), stderr);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return;
  }
  out << text;
}

/// Parses --listen=[HOST:]PORT into `config`; false when malformed.
bool parse_listen(const std::string& listen, net::ServerConfig& config) {
  std::string host = "127.0.0.1";
  std::string port_text = listen;
  const std::size_t colon = listen.rfind(':');
  if (colon != std::string::npos) {
    host = listen.substr(0, colon);
    port_text = listen.substr(colon + 1);
  }
  const std::optional<long long> port = parse_int(port_text);
  if (!port || *port < 0 || *port > 65'535 || host.empty()) return false;
  config.host = host;
  config.port = static_cast<std::uint16_t>(*port);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string input_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      static const char* const known[] = {
          "--cache-capacity=", "--shards=",      "--tests=",
          "--fkf",             "--stats",        "--explain",
          "--metrics-out=",    "--trace-out=",   "--max-queue=",
          "--overload=",       "--listen=",      "--request-timeout-ms=",
          "--cache-snapshot=", "--io-threads=",  "--pin-cores",
          "--port-file="};
      if (!is_known_flag(a, known)) {
        std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
        return usage();
      }
      args.push_back(a);
    } else if (input_path.empty()) {
      input_path = a;
    } else {
      return usage();
    }
  }

  const std::string listen = flag_str(args, "listen");
  const long long cache_capacity =
      int_flag(args, "cache-capacity", 65536, 0, kMaxLong);
  // Upper bounds keep absurd values from turning into a thread-spawn storm.
  const long long shards = int_flag(args, "shards", 0, 0, 65'536);
  const long long io_threads = int_flag(args, "io-threads", 1, 1, 256);
  const long long max_queue = int_flag(args, "max-queue", 4096, 1, 10'000'000);
  const long long timeout_ms =
      int_flag(args, "request-timeout-ms", 0, 0, kMaxLong);
  const std::string overload = flag_str(args, "overload");
  if (!overload.empty() && overload != "block" && overload != "shed") {
    std::fprintf(stderr, "invalid --overload mode '%s' (block|shed)\n",
                 overload.c_str());
    return usage();
  }
  if (!listen.empty() && !input_path.empty()) {
    std::fprintf(stderr, "--listen serves TCP; a request file is stdio-mode "
                         "only\n");
    return usage();
  }

  net::ServerConfig config;
  if (!listen.empty() && !parse_listen(listen, config)) {
    std::fprintf(stderr, "invalid --listen '%s' ([HOST:]PORT expected)\n",
                 listen.c_str());
    return 2;
  }
  config.io_threads = static_cast<unsigned>(io_threads);
  config.shards = static_cast<unsigned>(shards);
  config.cache_capacity = static_cast<std::size_t>(cache_capacity);
  config.max_queue = static_cast<std::size_t>(max_queue);
  config.shed_on_overload = overload == "shed";
  config.request_timeout_ms = timeout_ms;
  config.pin_cores = has_flag(args, "pin-cores");
  if (const auto tests = flag_value(args, "tests")) {
    config.options.request.tests = analysis::split_id_list(*tests);
    if (config.options.request.tests.empty()) {
      std::fprintf(stderr,
                   "--tests needs at least one analyzer id; registered "
                   "analyzers: %s\n",
                   analysis::AnalyzerRegistry::instance().id_list().c_str());
      return 2;
    }
  }
  config.options.explain = has_flag(args, "explain");
  if (has_flag(args, "fkf")) {
    config.options.request.scheduler = analysis::Scheduler::kEdfFkF;
  }
  validate_default_lineup(config.options);

  const std::string metrics_out = flag_str(args, "metrics-out");
  const std::string trace_out = flag_str(args, "trace-out");
  const std::string cache_snapshot = flag_str(args, "cache-snapshot");
  if (!trace_out.empty()) obs::Tracer::instance().start();

  int in_fd = STDIN_FILENO;
  if (!input_path.empty()) {
    in_fd = ::open(input_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (in_fd < 0) {
      std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
      return 1;
    }
  }

  net::AsyncServer server(config);
  if (!cache_snapshot.empty() && cache_capacity > 0) {
    std::ifstream probe(cache_snapshot);
    if (probe.good()) {
      probe.close();
      std::size_t restored = 0;
      std::string snap_error;
      if (server.load_cache_snapshot(cache_snapshot, &restored,
                                     &snap_error)) {
        std::fprintf(stderr, "cache: warm-restored %zu entries from %s\n",
                     restored, cache_snapshot.c_str());
      } else {
        std::fprintf(stderr, "cache: snapshot refused (%s); cold start\n",
                     snap_error.c_str());
      }
    }  // missing file: cold start, snapshot written at exit
  }

  g_server.store(&server);
  install_signal_handlers();
  Stopwatch clock;
  std::string error;
  if (listen.empty()) {
    if (!server.start_stream(in_fd, STDOUT_FILENO, &error)) {
      std::fprintf(stderr, "cannot serve stdio: %s\n", error.c_str());
      return 1;
    }
  } else {
    if (!server.start(&error)) {
      std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "listening on %s:%u (%s, %zu shard workers, %lld io "
                 "threads)\n",
                 config.host.c_str(), static_cast<unsigned>(server.port()),
                 net::Poller().backend(), server.shard_cache_stats().size(),
                 io_threads);
    const std::string port_file = flag_str(args, "port-file");
    if (!port_file.empty()) {
      // Scripts (the CI perf-smoke job) bind port 0 and read the real port
      // from here instead of scraping stderr.
      std::ofstream pf(port_file);
      pf << server.port() << "\n";
    }
  }
  server.wait();

  if (has_flag(args, "stats")) {
    const double secs = clock.seconds();
    const net::ServerTotals totals = server.totals();
    const svc::CacheStats cs = server.cache_stats();
    std::fprintf(stderr,
                 "served %llu requests over %llu connections "
                 "(%llu schedulable, %llu errors, %llu shed) in %.3fs — "
                 "%.0f req/s\n",
                 static_cast<unsigned long long>(totals.served),
                 static_cast<unsigned long long>(totals.connections),
                 static_cast<unsigned long long>(totals.accepted),
                 static_cast<unsigned long long>(totals.errors),
                 static_cast<unsigned long long>(totals.sheds), secs,
                 secs > 0 ? static_cast<double>(totals.served) / secs : 0.0);
    std::fprintf(stderr,
                 "cache: capacity=%lld shards=%zu size=%zu hits=%llu "
                 "misses=%llu evictions=%llu hit_rate=%.1f%%\n",
                 cache_capacity, server.shard_cache_stats().size(),
                 cs.entries, static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.evictions),
                 100.0 * cs.hit_rate());
  }
  if (!cache_snapshot.empty() && cache_capacity > 0) {
    std::string snap_error;
    if (!server.save_cache_snapshot(cache_snapshot, &snap_error)) {
      std::fprintf(stderr, "cache: snapshot not written (%s)\n",
                   snap_error.c_str());
    }
  }
  if (!metrics_out.empty()) {
    svc::publish_shard_cache_stats(server.shard_cache_stats(),
                                   static_cast<std::size_t>(cache_capacity));
    write_text_file(metrics_out,
                    obs::MetricsRegistry::instance().prometheus_text(),
                    "metrics");
  }
  if (!trace_out.empty()) {
    obs::Tracer::instance().stop();
    write_text_file(trace_out, obs::Tracer::instance().chrome_json(),
                    "trace");
  }
  g_server.store(nullptr);
  return 0;
}
