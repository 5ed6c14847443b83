// bench_report — machine-readable perf baseline for the analysis kernels.
// Self-timed, so it runs everywhere the library builds, including the CI
// smoke job. End-to-end serving numbers are not here: the repository
// benchmark (perfbench/) owns those.
//
//   bench_report [--out=BENCH_perf.json] [--quick]
//
//   --out=PATH   the JSON report to write whole (default BENCH_perf.json in
//                the current directory); the file is byte-identical to what
//                this tool prints on stdout; "-" prints to stdout only
//   --quick      CI smoke sizing: fewer repetitions, shorter percentile
//                pass — trend-quality numbers in ~a second
//
// An unknown flag prints a usage line and exits 2.
//
// Measurements:
//   * ns/op for the report path (dp_test/gn1_test/gn2_test: the kernels
//     filling a full-diagnostics TestReport, what AnalysisEngine::run()
//     evaluates) and the fast path (AnalysisEngine::decide over
//     single-analyzer engines, the same kernels without a report) at
//     N ∈ {4, 8, 16, 32, 64}, median of R repetitions;
//   * the log2(t(64)/t(32)) complexity exponent per series — both GN2
//     paths must stay visibly below cubic (the paper's O(N³));
//   * latency percentiles (p50/p95/p99, nanoseconds) from obs histograms:
//     whole single-analyzer decide() calls, timed by this tool, and the svc
//     request latency over a mixed-duplicate stream. The ns/op series
//     above run with obs DISABLED, so against the committed baseline they
//     price the obs kill switch; the percentile pass then re-enables it.
//
// The committed BENCH_perf.json at the repo root holds the numbers this
// tool last produced (bench_runtime writes BENCH_runtime.json); refresh it
// with
//   cmake --build build -j && ./build/bench_report --out=BENCH_perf.json
// and commit the diff alongside any change that moves the numbers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "svc/batch.hpp"
#include "svc/shard_cache.hpp"

namespace {

using namespace reconf;

constexpr int kSizes[] = {4, 8, 16, 32, 64};

TaskSet make_taskset(int n, std::uint64_t seed) {
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(n);
  req.target_system_util = 0.3 * 100.0;
  req.seed = seed;
  const auto ts = gen::generate_with_retries(req);
  RECONF_ASSERT(ts.has_value());
  return *ts;
}

/// Median ns/op of `fn` over `reps` repetitions, each calibrated to run at
/// least `min_rep_ns` of wall time.
template <class Fn>
double measure_ns(Fn&& fn, int reps, double min_rep_ns) {
  // Calibrate the iteration count once.
  std::uint64_t iters = 1;
  for (;;) {
    Stopwatch w;
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double ns = w.seconds() * 1e9;
    if (ns >= min_rep_ns || iters > (1ull << 30)) break;
    const double grow = ns > 0 ? min_rep_ns / ns * 1.2 : 2.0;
    iters = std::max<std::uint64_t>(
        iters + 1, static_cast<std::uint64_t>(
                       static_cast<double>(iters) * std::min(grow, 16.0)));
  }
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    samples.push_back(w.seconds() * 1e9 / static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Series {
  std::string test;  ///< "dp" / "gn1" / "gn2"
  std::string path;  ///< "report" / "fast"
  std::vector<std::pair<int, double>> ns_per_op;  ///< (N, ns)

  /// log2 growth from the last size doubling — the empirical complexity
  /// exponent (3 ≈ cubic, 2 ≈ quadratic, 1 ≈ linear).
  [[nodiscard]] double exponent() const {
    const auto& a = ns_per_op[ns_per_op.size() - 2];
    const auto& b = ns_per_op.back();
    return std::log2(b.second / a.second);
  }
};

analysis::AnalysisEngine fast_engine(const char* test) {
  return analysis::AnalysisEngine{analysis::fast_single_request(test)};
}

std::vector<Series> run_analysis_benches(int reps, double min_rep_ns) {
  std::vector<Series> out;
  const Device dev{100};
  const auto add = [&](const char* test, const char* path, auto&& eval) {
    Series s{test, path, {}};
    for (const int n : kSizes) {
      // One seed per (test, N), shared between report and fast so the
      // speedup column compares identical work.
      const TaskSet ts = make_taskset(n, 0xBA5E + static_cast<unsigned>(n));
      s.ns_per_op.emplace_back(n, measure_ns([&] { eval(ts, dev); }, reps,
                                             min_rep_ns));
    }
    out.push_back(std::move(s));
  };

  add("dp", "report", [](const TaskSet& t, Device d) {
    (void)analysis::dp_test(t, d).accepted();
  });
  add("gn1", "report", [](const TaskSet& t, Device d) {
    (void)analysis::gn1_test(t, d).accepted();
  });
  add("gn2", "report", [](const TaskSet& t, Device d) {
    (void)analysis::gn2_test(t, d).accepted();
  });
  add("dp", "fast", [e = fast_engine("dp")](const TaskSet& t, Device d) {
    (void)e.decide(t, d).accepted();
  });
  add("gn1", "fast", [e = fast_engine("gn1")](const TaskSet& t, Device d) {
    (void)e.decide(t, d).accepted();
  });
  add("gn2", "fast", [e = fast_engine("gn2")](const TaskSet& t, Device d) {
    (void)e.decide(t, d).accepted();
  });
  return out;
}

struct Percentiles {
  std::string name;  ///< "dp" / "gn1" / "gn2" / "svc_request"
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t count = 0;
};

Percentiles snapshot_percentiles(std::string name,
                                 const obs::Histogram& histogram) {
  const obs::HistogramSnapshot snap = histogram.snapshot();
  return {std::move(name), snap.percentile(0.50), snap.percentile(0.95),
          snap.percentile(0.99), snap.count};
}

/// Obs-enabled pass. decide() reads no clock, so each single-analyzer
/// engine's whole decide() calls are timed here into a local histogram;
/// the svc request histogram the serving tier exposes fills on the normal
/// path, driven by a short mixed-duplicate stream.
std::vector<Percentiles> run_percentile_pass(std::size_t iters,
                                             std::size_t requests) {
  obs::set_enabled(true);
  std::vector<Percentiles> out;
  const Device dev{100};
  for (const char* test : {"dp", "gn1", "gn2"}) {
    const analysis::AnalysisEngine engine{
        analysis::fast_single_request(test)};
    const TaskSet ts = make_taskset(32, 0xBA5E + 32u);
    obs::Histogram latency_ns;
    for (std::size_t i = 0; i < iters; ++i) {
      const Stopwatch watch;
      (void)engine.decide(ts, dev);
      latency_ns.record(
          static_cast<std::uint64_t>(std::llround(watch.seconds() * 1e9)));
    }
    out.push_back(snapshot_percentiles(test, latency_ns));
  }

  std::vector<svc::BatchRequest> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    Xoshiro256ss rng(derive_seed(0x0B5EC0DE, i));
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(12);
    // Half the stream repeats 16 hot seeds — hit and miss latencies both
    // land in the histogram, like real admission traffic.
    req.seed = derive_seed(0x0B5EC0DE, rng.uniform01() < 0.5
                                           ? i % 16
                                           : i + (1u << 20));
    req.target_system_util =
        5.0 + 90.0 * static_cast<double>(i % 64) / 63.0;
    req.target_tolerance = 2.0;
    if (auto ts = gen::generate(req)) {
      svc::BatchRequest r;
      r.id = std::to_string(i);
      r.device = dev;
      r.taskset = std::move(*ts);
      stream.push_back(std::move(r));
    }
  }
  // One shard worker's path: the serving engine and a single-owner cache.
  const analysis::AnalysisEngine serving{analysis::fast_any_request()};
  svc::ShardCache cache(1 << 16);
  for (const svc::BatchRequest& r : stream) {
    (void)svc::evaluate_with_engine(serving, r, &cache);
  }
  out.push_back(snapshot_percentiles(
      "svc_request", obs::MetricsRegistry::instance().histogram(
                         "reconf_svc_request_latency_ns")));
  return out;
}

/// The whole report, in file order. The runtime and fault records are
/// bench_runtime's, in BENCH_runtime.json.
std::string report_json(const std::vector<Series>& analysis,
                        const std::vector<Percentiles>& percentiles,
                        bool quick) {
  char buf[256];
  std::string json = "{\n  \"schema\": \"reconf-bench-perf/2\",\n";
  json += quick ? "  \"mode\": \"quick\",\n" : "  \"mode\": \"full\",\n";

  json += "  \"analysis\": [\n";
  for (std::size_t s = 0; s < analysis.size(); ++s) {
    const Series& series = analysis[s];
    for (std::size_t p = 0; p < series.ns_per_op.size(); ++p) {
      std::snprintf(buf, sizeof buf,
                    "    {\"test\": \"%s\", \"path\": \"%s\", \"n\": %d, "
                    "\"ns_per_op\": %.1f}%s\n",
                    series.test.c_str(), series.path.c_str(),
                    series.ns_per_op[p].first, series.ns_per_op[p].second,
                    s + 1 == analysis.size() && p + 1 == series.ns_per_op.size()
                        ? ""
                        : ",");
      json += buf;
    }
  }

  json += "  ],\n  \"complexity_exponents\": {";
  for (std::size_t s = 0; s < analysis.size(); ++s) {
    std::snprintf(buf, sizeof buf, "%s\"%s_%s\": %.2f",
                  s == 0 ? "" : ", ", analysis[s].test.c_str(),
                  analysis[s].path.c_str(), analysis[s].exponent());
    json += buf;
  }

  json += "},\n  \"speedup\": {";
  // fast vs report at the largest N, per test.
  bool first = true;
  for (const Series& ref : analysis) {
    if (ref.path != "report") continue;
    for (const Series& fast : analysis) {
      if (fast.path != "fast" || fast.test != ref.test) continue;
      std::snprintf(buf, sizeof buf, "%s\"%s_n%d\": %.1f", first ? "" : ", ",
                    ref.test.c_str(), ref.ns_per_op.back().first,
                    ref.ns_per_op.back().second / fast.ns_per_op.back().second);
      json += buf;
      first = false;
    }
  }

  json += "},\n  \"latency_percentiles_ns\": [\n";
  for (std::size_t i = 0; i < percentiles.size(); ++i) {
    const Percentiles& p = percentiles[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"series\": \"%s\", \"count\": %llu, \"p50\": %llu, "
                  "\"p95\": %llu, \"p99\": %llu}%s\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.count),
                  static_cast<unsigned long long>(p.p50),
                  static_cast<unsigned long long>(p.p95),
                  static_cast<unsigned long long>(p.p99),
                  i + 1 == percentiles.size() ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";
  return json;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_report [--out=BENCH_perf.json] [--quick]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  static const char* const known[] = {"--out=", "--quick"};
  for (const std::string& a : args) {
    if (!is_known_flag(a, known)) {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return usage();
    }
  }
  const bool quick = has_flag(args, "quick");
  const std::string out_path =
      flag_value(args, "out").value_or("BENCH_perf.json");

  const int reps = quick ? 3 : 7;
  const double min_rep_ns = quick ? 2e6 : 2e7;

  // Baseline series run with obs disabled: the committed BENCH_perf.json
  // predates src/obs/, and the CI guardrails below must keep judging the
  // bare kernels. The percentile pass re-enables it afterwards.
  obs::set_enabled(false);
  std::fprintf(stderr, "bench_report: measuring analysis kernels...\n");
  const auto analysis_series = run_analysis_benches(reps, min_rep_ns);
  std::fprintf(stderr, "bench_report: collecting latency percentiles...\n");
  const auto percentiles =
      run_percentile_pass(quick ? 500 : 5000, quick ? 500 : 2000);

  const std::string json = report_json(analysis_series, percentiles, quick);
  if (out_path != "-") {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "bench_report: wrote %s\n", out_path.c_str());
  }
  std::fputs(json.c_str(), stdout);

  // Smoke guardrail: both GN2 paths evaluate the λ-sweep and must grow
  // below cubic — CI fails loudly when a regression lands.
  for (const auto& s : analysis_series) {
    if (s.test == "gn2" && s.exponent() > 2.6) {
      std::fprintf(stderr, "FAIL: %s GN2 exponent %.2f > 2.6\n",
                   s.path.c_str(), s.exponent());
      return 1;
    }
  }
  return 0;
}
