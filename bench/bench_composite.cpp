// Section 6 recommendation, quantified: "different schedulability bounds
// should be applied together, i.e., determine that a taskset is
// unschedulable only if all tests fail." Runs the paper trio through one
// shared AnalysisEngine (run-all, so every sub-verdict is observed),
// measures the composite (ANY) acceptance against each individual test and
// counts tasksets accepted by exactly one test — the incomparability the
// paper demonstrates with Tables 1-3, at population scale. Per-analyzer
// runs, accepts and time, tallied from the engine's reports, close it.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/engine.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"

int main() {
  using namespace reconf;

  const int per_bin = 1000;
  const int bins = 20;
  const Device dev{100};

  struct Workload {
    const char* name;
    gen::GenProfile profile;
    double us_max;
  };
  const Workload workloads[] = {
      {"4 tasks unconstrained", gen::GenProfile::unconstrained(4), 70.0},
      {"10 tasks unconstrained", gen::GenProfile::unconstrained(10), 70.0},
      {"10 temporally-heavy", gen::GenProfile::spatially_light_time_heavy(10),
       70.0},
  };

  // One engine for the whole bench: run-all (no early exit) because the
  // unique-win accounting needs every sub-verdict, not just the first
  // acceptance.
  const analysis::AnalysisEngine engine{analysis::AnalysisRequest{}};
  struct Tally {
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> accepts{0};
    std::atomic<std::uint64_t> nanos{0};
  };
  std::vector<Tally> tallies(engine.analyzer_count());  // execution order

  std::printf("=== composite test: union coverage and unique wins ===\n\n");
  std::printf("%-24s %8s %8s %8s %8s | %8s %8s %8s | %s\n", "workload", "DP",
              "GN1", "GN2", "ANY", "onlyDP", "onlyGN1", "onlyGN2",
              "n");

  for (const Workload& w : workloads) {
    std::atomic<std::uint64_t> dp_n{0};
    std::atomic<std::uint64_t> gn1_n{0};
    std::atomic<std::uint64_t> gn2_n{0};
    std::atomic<std::uint64_t> any_n{0};
    std::atomic<std::uint64_t> only_dp{0};
    std::atomic<std::uint64_t> only_gn1{0};
    std::atomic<std::uint64_t> only_gn2{0};
    std::atomic<std::uint64_t> samples{0};

    const std::size_t total =
        static_cast<std::size_t>(per_bin) * static_cast<std::size_t>(bins);
    parallel_for(
        total,
        [&](std::size_t flat) {
          const std::size_t bin = flat % static_cast<std::size_t>(bins);
          gen::GenRequest req;
          req.profile = w.profile;
          req.target_system_util =
              5.0 + (w.us_max - 5.0) *
                        (static_cast<double>(bin) + 0.5) /
                        static_cast<double>(bins);
          req.seed = gen::derive_seed(0xC0117031, flat);
          const auto ts = gen::generate_with_retries(req);
          if (!ts) return;
          samples.fetch_add(1, std::memory_order_relaxed);

          const auto report = engine.run(*ts, dev);
          for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
            const analysis::AnalyzerOutcome& o = report.outcomes[i];
            if (!o.ran) continue;
            tallies[i].runs.fetch_add(1, std::memory_order_relaxed);
            if (o.report.accepted()) {
              tallies[i].accepts.fetch_add(1, std::memory_order_relaxed);
            }
            tallies[i].nanos.fetch_add(
                static_cast<std::uint64_t>(std::llround(o.seconds * 1e9)),
                std::memory_order_relaxed);
          }
          const auto ok = [&report](const char* id) {
            const auto* r = report.report_for(id);
            return r != nullptr && r->accepted();
          };
          const bool dp = ok("dp");
          const bool gn1 = ok("gn1");
          const bool gn2 = ok("gn2");
          if (dp) dp_n.fetch_add(1, std::memory_order_relaxed);
          if (gn1) gn1_n.fetch_add(1, std::memory_order_relaxed);
          if (gn2) gn2_n.fetch_add(1, std::memory_order_relaxed);
          if (report.accepted()) {
            any_n.fetch_add(1, std::memory_order_relaxed);
          }
          if (dp && !gn1 && !gn2)
            only_dp.fetch_add(1, std::memory_order_relaxed);
          if (gn1 && !dp && !gn2)
            only_gn1.fetch_add(1, std::memory_order_relaxed);
          if (gn2 && !dp && !gn1)
            only_gn2.fetch_add(1, std::memory_order_relaxed);
        });

    const double n = static_cast<double>(samples.load());
    const auto pct = [n](const std::atomic<std::uint64_t>& v) {
      return n == 0 ? 0.0 : 100.0 * static_cast<double>(v.load()) / n;
    };
    std::printf("%-24s %7.2f%% %7.2f%% %7.2f%% %7.2f%% | %7.2f%% %7.2f%% "
                "%7.2f%% | %llu\n",
                w.name, pct(dp_n), pct(gn1_n), pct(gn2_n), pct(any_n),
                pct(only_dp), pct(only_gn1), pct(only_gn2),
                static_cast<unsigned long long>(samples.load()));
  }

  std::printf("\nper-analyzer engine stats (all workloads):\n");
  const std::vector<std::string> ids = engine.execution_order();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t runs = tallies[i].runs.load();
    const std::uint64_t accepts = tallies[i].accepts.load();
    const double seconds = static_cast<double>(tallies[i].nanos.load()) / 1e9;
    std::printf("  %-4s: %10llu runs, %9llu accepts (%5.2f%%), %8.1f ms "
                "total (%.2f us/run)\n",
                ids[i].c_str(), static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(accepts),
                runs == 0 ? 0.0
                          : 100.0 * static_cast<double>(accepts) /
                                static_cast<double>(runs),
                seconds * 1e3,
                runs == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(runs));
  }

  std::printf("\nreading: ANY dominates every individual column (it is their "
              "union); nonzero 'only' columns reproduce the pairwise "
              "incomparability of Tables 1-3 at scale.\n");
  return 0;
}
