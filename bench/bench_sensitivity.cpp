// Pessimism, measured as capacity: for each acceptance criterion, the
// critical WCET scaling factor — the largest uniform inflation of all
// execution times the criterion still accepts. The ratio between the
// simulation's critical factor and a bound test's critical factor converts
// the acceptance-ratio gap of Figs. 3-4 into "how much real capacity the
// bound leaves on the table".

#include <atomic>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "analysis/sensitivity.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace reconf;
  using analysis::AcceptPredicate;

  struct Criterion {
    const char* name;
    AcceptPredicate accept;
  };
  const Criterion criteria[] = {
      {"DP",
       [](const TaskSet& t, Device d) {
         return analysis::dp_test(t, d).accepted();
       }},
      {"GN1",
       [](const TaskSet& t, Device d) {
         return analysis::gn1_test(t, d).accepted();
       }},
      {"GN2",
       [](const TaskSet& t, Device d) {
         return analysis::gn2_test(t, d).accepted();
       }},
      {"ANY",
       [engine = std::make_shared<analysis::AnalysisEngine>(
            analysis::fast_any_request())](const TaskSet& t, Device d) {
         return engine->decide(t, d).accepted();
       }},
      {"SIM-NF",
       [](const TaskSet& t, Device d) {
         sim::SimConfig cfg;
         cfg.horizon_periods = 40;
         return sim::simulate(t, d, cfg).schedulable;
       }},
  };
  constexpr std::size_t kNumCriteria = std::size(criteria);

  const int samples = 501;
  const Device dev{100};

  struct Workload {
    const char* name;
    gen::GenProfile profile;
    double base_us;
  };
  const Workload workloads[] = {
      {"4 tasks unconstrained", gen::GenProfile::unconstrained(4), 20.0},
      {"10 tasks unconstrained", gen::GenProfile::unconstrained(10), 20.0},
      {"10 temporally-heavy", gen::GenProfile::spatially_light_time_heavy(10),
       60.0},
  };

  std::printf("=== critical WCET scaling (mean factor; higher = accepts "
              "more load) ===\n");
  std::printf("%-24s", "workload");
  for (const Criterion& c : criteria) std::printf(" %9s", c.name);
  std::printf("   %s\n", "pessimism ANY vs SIM");

  for (const Workload& w : workloads) {
    std::atomic<std::uint64_t> sum_permille[kNumCriteria] = {};
    std::atomic<std::uint64_t> n{0};

    parallel_for(
        static_cast<std::size_t>(samples),
        [&](std::size_t i) {
          gen::GenRequest req;
          req.profile = w.profile;
          req.target_system_util = w.base_us;
          req.seed = gen::derive_seed(
              0x5E45, i * 131 + static_cast<std::uint64_t>(w.base_us));
          const auto ts = gen::generate_with_retries(req);
          if (!ts) return;
          n.fetch_add(1, std::memory_order_relaxed);
          for (std::size_t c = 0; c < kNumCriteria; ++c) {
            const auto crit = analysis::critical_wcet_scale_permille(
                *ts, dev, criteria[c].accept, 8000);
            sum_permille[c].fetch_add(crit.value_or(0),
                                      std::memory_order_relaxed);
          }
        });

    const double total = static_cast<double>(n.load());
    std::printf("%-24s", w.name);
    double any_mean = 0;
    double sim_mean = 0;
    for (std::size_t c = 0; c < kNumCriteria; ++c) {
      const double mean =
          total == 0
              ? 0.0
              : static_cast<double>(sum_permille[c].load()) / total / 1000.0;
      if (std::string(criteria[c].name) == "ANY") any_mean = mean;
      if (std::string(criteria[c].name) == "SIM-NF") sim_mean = mean;
      std::printf(" %9.3f", mean);
    }
    std::printf("   %.2fx\n", any_mean > 0 ? sim_mean / any_mean : 0.0);
  }

  std::printf("\nreading: simulation sustains several times the load the "
              "bounds certify (the Figs. 3-4 pessimism, expressed as a "
              "capacity multiplier); the composite is the per-taskset max "
              "of the three bounds.\n");
  return 0;
}
