// Future-work study (paper Sections 1 & 7): reconfiguration overhead.
// The paper assumes zero overhead but suggests folding it into execution
// times. This bench sweeps the per-column cost rho and compares
//  (a) analysis acceptance on the inflated taskset (C' = C + rho·A·k) for
//      k = 1 placement per job, against
//  (b) simulation with the overhead actually charged per placement.
// Where (a) accepts but (b) misses, the k=1 inflation under-counts
// preemption-induced re-placements — measured here.

#include <atomic>
#include <cstdio>

#include "analysis/engine.hpp"
#include "analysis/overhead.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace reconf;

  const Device dev{100};
  const int samples = 1000;
  // EDF-FkF capability filter: the engine keeps only the FkF-sound subset
  // (DP, GN2) of the default lineup — the simulated scheduler below blocks.
  analysis::AnalysisRequest fkf_request = analysis::fast_any_request();
  fkf_request.scheduler = analysis::Scheduler::kEdfFkF;
  const analysis::AnalysisEngine fkf_engine{std::move(fkf_request)};

  std::printf("=== reconfiguration overhead: inflated analysis vs simulated "
              "charges ===\n");
  std::printf("%-12s %12s %12s %12s %14s\n", "rho(ticks)", "ANY(infl k=1)",
              "SIM-NF", "SIM-FkF", "opt.violations");

  for (const Ticks rho : {0LL, 1LL, 2LL, 5LL, 10LL, 20LL}) {
    std::atomic<std::uint64_t> analysis_acc{0};
    std::atomic<std::uint64_t> sim_nf_acc{0};
    std::atomic<std::uint64_t> sim_fkf_acc{0};
    std::atomic<std::uint64_t> optimism{0};  // analysis yes, sim-FkF no
    std::atomic<std::uint64_t> n{0};

    parallel_for(
        static_cast<std::size_t>(samples),
        [&](std::size_t i) {
          gen::GenRequest req;
          req.profile = gen::GenProfile::unconstrained(10);
          // Mid-range load where overhead decides the verdict.
          req.target_system_util =
              10.0 + 30.0 * (static_cast<double>(i % 16) / 16.0);
          req.seed = gen::derive_seed(0x0E44EAD ^ static_cast<std::uint64_t>(rho),
                                      i);
          const auto ts = gen::generate_with_retries(req);
          if (!ts) return;
          n.fetch_add(1, std::memory_order_relaxed);

          analysis::OverheadModel model;
          model.cost.per_column = rho;
          const TaskSet inflated = analysis::inflate_for_overhead(*ts, model);
          const bool accepted = fkf_engine.decide(inflated, dev).accepted();
          if (accepted) analysis_acc.fetch_add(1, std::memory_order_relaxed);

          sim::SimConfig cfg;
          cfg.horizon_periods = 40;
          cfg.reconf.per_column = rho;
          cfg.scheduler = sim::SchedulerKind::kEdfNf;
          const bool nf_ok = sim::simulate(*ts, dev, cfg).schedulable;
          cfg.scheduler = sim::SchedulerKind::kEdfFkF;
          const bool fkf_ok = sim::simulate(*ts, dev, cfg).schedulable;
          if (nf_ok) sim_nf_acc.fetch_add(1, std::memory_order_relaxed);
          if (fkf_ok) sim_fkf_acc.fetch_add(1, std::memory_order_relaxed);
          if (accepted && !fkf_ok)
            optimism.fetch_add(1, std::memory_order_relaxed);
        });

    const double total = static_cast<double>(n.load());
    const auto pct = [total](const std::atomic<std::uint64_t>& v) {
      return total == 0 ? 0.0 : 100.0 * static_cast<double>(v.load()) / total;
    };
    std::printf("%-12lld %11.2f%% %11.2f%% %11.2f%% %14llu\n",
                static_cast<long long>(rho), pct(analysis_acc),
                pct(sim_nf_acc), pct(sim_fkf_acc),
                static_cast<unsigned long long>(optimism.load()));
  }

  std::printf(
      "\nreading: acceptance decays with rho on both sides. 'opt.violations' "
      "counts tasksets where single-placement inflation (k=1) accepted but "
      "the FkF simulation — which also charges every re-placement after a "
      "preemption — missed: the k=1 folding is optimistic under preemption, "
      "so safe analyses must budget placements per job.\n");
  return 0;
}
