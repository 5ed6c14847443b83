// Microbenchmarks (google-benchmark): evaluation cost of the three bound
// tests as a function of taskset size N — empirically confirming the
// complexity the paper states for GN2 (O(N^3) over the lambda candidates) —
// plus simulator throughput, taskset generation and exact-arithmetic cost.

#include <benchmark/benchmark.h>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace {

using namespace reconf;

/// Scoped obs kill-switch: the kernel baselines run with metrics disabled
/// (matching the committed BENCH_perf.json, which predates src/obs/ — the
/// <2% decide() regression budget is judged against it), while the
/// BM_Obs*/BM_EngineTrioDecideObs benches flip it on to price the enabled
/// path.
struct ScopedObs {
  explicit ScopedObs(bool on) : prev(obs::enabled()) { obs::set_enabled(on); }
  ~ScopedObs() { obs::set_enabled(prev); }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
  bool prev;
};

TaskSet make_taskset(int n, std::uint64_t seed, double us_frac = 0.3) {
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(n);
  req.target_system_util = us_frac * 100.0;
  req.seed = seed;
  const auto ts = gen::generate_with_retries(req);
  RECONF_ASSERT(ts.has_value());
  return *ts;
}

void BM_DpTest(benchmark::State& state) {
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 11);
  const Device dev{100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::dp_test(ts, dev).accepted());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DpTest)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_Gn1Test(benchmark::State& state) {
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 22);
  const Device dev{100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::gn1_test(ts, dev).accepted());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gn1Test)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_Gn2Test(benchmark::State& state) {
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 33);
  const Device dev{100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::gn2_test(ts, dev).accepted());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gn2Test)->RangeMultiplier(2)->Range(2, 64)->Complexity();

// ---- SoA fast-path counterparts: one single-analyzer engine, decide()
// through the kernels (includes the per-verdict scratch build — the honest
// serving cost). Compare against BM_DpTest/BM_Gn1Test/BM_Gn2Test above;
// BM_Gn2Fast's fitted complexity must stay below the reference's N^3.

analysis::AnalysisEngine fast_engine(const char* test) {
  return analysis::AnalysisEngine{analysis::fast_single_request(test)};
}

void BM_DpFast(benchmark::State& state) {
  const ScopedObs obs_off(false);
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 11);
  const Device dev{100};
  const auto engine = fast_engine("dp");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide(ts, dev).accepted());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DpFast)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_Gn1Fast(benchmark::State& state) {
  const ScopedObs obs_off(false);
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 22);
  const Device dev{100};
  const auto engine = fast_engine("gn1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide(ts, dev).accepted());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gn1Fast)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_Gn2Fast(benchmark::State& state) {
  const ScopedObs obs_off(false);
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 33);
  const Device dev{100};
  const auto engine = fast_engine("gn2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide(ts, dev).accepted());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gn2Fast)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_Gn2TestExact(benchmark::State& state) {
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 44);
  const Device dev{100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::gn2_test_exact(ts, dev).accepted());
  }
}
BENCHMARK(BM_Gn2TestExact)->Arg(4)->Arg(10)->Arg(20);

// The paper trio through the reference evaluators with every test run —
// the AnalysisRequest defaults through run(), which times each analyzer.
void BM_EngineTrioReference(benchmark::State& state) {
  const ScopedObs obs_off(false);
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 55);
  const Device dev{100};
  const analysis::AnalysisEngine engine{analysis::AnalysisRequest{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(ts, dev).accepted());
  }
}
BENCHMARK(BM_EngineTrioReference)->Arg(4)->Arg(10)->Arg(32);

// The allocation-free serving verdict: paper trio, SoA kernels, early exit
// inside decide(). The gap to BM_EngineTrioReference combines
// kernel-vs-reference-evaluator cost with early exit.
void BM_EngineTrioDecide(benchmark::State& state) {
  const ScopedObs obs_off(false);
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 55);
  const Device dev{100};
  const analysis::AnalysisEngine engine{analysis::fast_any_request()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide(ts, dev).accepted());
  }
}
BENCHMARK(BM_EngineTrioDecide)->Arg(4)->Arg(10)->Arg(32);

// ---- observability cost: the enabled serving path and the primitives.
// BM_EngineTrioDecideObs vs BM_EngineTrioDecide is the whole-path price of
// leaving metrics on (counters + spans armed but no tracer running);
// BM_ObsCounterIncDisabled vs BM_ObsCounterInc is the kill switch at the
// single-write granularity.

void BM_EngineTrioDecideObs(benchmark::State& state) {
  const ScopedObs obs_on(true);
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 55);
  const Device dev{100};
  const analysis::AnalysisEngine engine{analysis::fast_any_request()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide(ts, dev).accepted());
  }
}
BENCHMARK(BM_EngineTrioDecideObs)->Arg(4)->Arg(10)->Arg(32);

void BM_ObsCounterInc(benchmark::State& state) {
  const ScopedObs obs_on(true);
  obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterIncDisabled(benchmark::State& state) {
  const ScopedObs obs_off(false);
  obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterIncDisabled);

void BM_ObsHistogramRecord(benchmark::State& state) {
  const ScopedObs obs_on(true);
  obs::Histogram histogram;
  std::uint64_t sample = 1;
  for (auto _ : state) {
    histogram.record(sample);
    sample = sample * 25 % 9999999783ull;  // walk the bucket ladder
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_SimulateNf(benchmark::State& state) {
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 66, 0.5);
  const Device dev{100};
  sim::SimConfig cfg;
  cfg.horizon_periods = 50;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const auto r = sim::simulate(ts, dev, cfg);
    jobs += r.jobs_released;
    benchmark::DoNotOptimize(r.schedulable);
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateNf)->Arg(4)->Arg(10)->Arg(20);

void BM_SimulateFkF(benchmark::State& state) {
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 77, 0.5);
  const Device dev{100};
  sim::SimConfig cfg;
  cfg.scheduler = sim::SchedulerKind::kEdfFkF;
  cfg.horizon_periods = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(ts, dev, cfg).schedulable);
  }
}
BENCHMARK(BM_SimulateFkF)->Arg(4)->Arg(10)->Arg(20);

void BM_SimulatePlacementConstrained(benchmark::State& state) {
  const TaskSet ts = make_taskset(static_cast<int>(state.range(0)), 88, 0.5);
  const Device dev{100};
  sim::SimConfig cfg;
  cfg.placement = sim::PlacementMode::kContiguousNoMigration;
  cfg.horizon_periods = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(ts, dev, cfg).schedulable);
  }
}
BENCHMARK(BM_SimulatePlacementConstrained)->Arg(10);

void BM_Generate(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(10);
    req.target_system_util = 40.0;
    req.seed = ++seed;
    benchmark::DoNotOptimize(gen::generate_with_retries(req).has_value());
  }
}
BENCHMARK(BM_Generate);

}  // namespace

BENCHMARK_MAIN();
