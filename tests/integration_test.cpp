// End-to-end integration across modules: generation → analysis →
// simulation → partitioning → experiment sweep, plus directed cross-module
// scenarios (global-vs-partitioned, admission pipeline, serialization
// round-trip through the whole stack).

#include <sstream>

#include <gtest/gtest.h>

#include "reconf/reconf.hpp"

namespace reconf {
namespace {

TEST(Integration, GlobalEdfBeatsPartitioningOnStaggeredSet) {
  // Companion to partition_test: partitioning is width-infeasible, yet the
  // global simulation meets every deadline over a long horizon.
  const TaskSet ts({make_task(3, 5, 5, 3), make_task(3.6, 6, 6, 3),
                    make_task(4.8, 8, 8, 3), make_task(6, 10, 10, 3)});
  const Device dev{10};
  EXPECT_FALSE(partition::partitioned_schedulable(ts, dev));

  sim::SimConfig cfg;
  cfg.horizon_periods = 400;
  cfg.check_invariants = true;
  const auto run = sim::simulate(ts, dev, cfg);
  EXPECT_TRUE(run.schedulable);
  EXPECT_TRUE(run.invariant_violations.empty());
}

TEST(Integration, PartitionedWinsOnTable2WhileFkFBoundsFail) {
  // Paper Table 2 under the EDF-FkF-sound lineup (DP+GN2) is
  // inconclusive, but partitioning proves it schedulable — the two
  // approaches are incomparable, as the paper notes citing Danne RAW'06.
  const TaskSet ts = fixtures::paper_table2();
  const Device dev = fixtures::paper_device_small();
  analysis::AnalysisRequest fkf;
  fkf.scheduler = analysis::Scheduler::kEdfFkF;
  EXPECT_FALSE(analysis::AnalysisEngine(fkf).run(ts, dev).accepted());
  EXPECT_TRUE(partition::partitioned_schedulable(ts, dev));
}

TEST(Integration, GeneratedAcceptedTasksetSurvivesFullPipeline) {
  const Device dev{100};
  int verified = 0;
  for (std::uint64_t seed = 0; seed < 40 && verified < 5; ++seed) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(6);
    req.target_system_util = 15.0;
    req.seed = seed;
    const auto ts = gen::generate_with_retries(req);
    if (!ts) continue;
    const auto verdict =
        analysis::AnalysisEngine(analysis::AnalysisRequest{}).run(*ts, dev);
    if (!verdict.accepted()) continue;
    ++verified;

    // Round-trip through the text format, then simulate the parsed copy.
    const auto parsed = io::from_string(io::to_string(*ts, dev));
    sim::SimConfig cfg;
    cfg.check_invariants = true;
    const auto run = sim::simulate(parsed.taskset, parsed.device, cfg);
    EXPECT_TRUE(run.schedulable) << "seed " << seed;
    EXPECT_TRUE(run.invariant_violations.empty()) << "seed " << seed;
  }
  EXPECT_GE(verified, 3) << "not enough accepted tasksets to integrate";
}

TEST(Integration, SweepAgreesWithDirectEvaluation) {
  // One tiny sweep bin recomputed by hand: the sweep's counts must equal
  // direct per-sample evaluation with the same derived seeds.
  exp::SweepConfig cfg;
  cfg.profile = gen::GenProfile::unconstrained(4);
  cfg.device = Device{100};
  cfg.us_min = 20.0;
  cfg.us_max = 20.0;
  cfg.bins = 1;
  cfg.samples_per_bin = 25;
  cfg.seed = 77;
  cfg.series = {exp::dp_series()};
  const auto sweep = exp::run_sweep(cfg);
  ASSERT_EQ(sweep.bins.size(), 1u);

  std::uint64_t direct = 0;
  std::uint64_t samples = 0;
  for (std::size_t flat = 0; flat < 25; ++flat) {
    gen::GenRequest req;
    req.profile = cfg.profile;
    req.target_system_util = cfg.bin_target(0);
    req.seed = derive_seed(cfg.seed, flat);
    const auto ts = gen::generate_with_retries(req, exp::kGenAttempts);
    if (!ts) continue;
    ++samples;
    direct += analysis::dp_test(*ts, cfg.device).accepted() ? 1 : 0;
  }
  EXPECT_EQ(sweep.bins[0].samples, samples);
  EXPECT_EQ(sweep.bins[0].accepted[0], direct);
}

TEST(Integration, UmbrellaHeaderExposesTheWholeApi) {
  // Compile-time proof that reconf.hpp covers the public surface used by
  // the examples; a few representative calls from each module.
  const TaskSet ts = fixtures::paper_table3();
  const Device dev = fixtures::paper_device_small();
  (void)analysis::dp_test(ts, dev);
  (void)analysis::gn1_test_exact(ts, dev);
  (void)mp::gfb_test(mp::as_unit_area(ts), mp::MpPlatform{4});
  (void)partition::partition_tasks(ts, dev);
  placement::ColumnMap map(dev.width);
  (void)map.find_gap(3, placement::Strategy::kBestFit);
  (void)sim::default_horizon(ts, sim::SimConfig{});
  (void)derive_seed(1, 2);
  math::BigRational exact(1, 3);
  (void)exact.to_double();
}

}  // namespace
}  // namespace reconf
