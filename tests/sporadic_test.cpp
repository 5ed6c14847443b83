// Sporadic arrival model: T_i is the minimum inter-arrival time (paper
// Section 2 defines tasks as "periodic or sporadic"). Sufficient tests
// quantify over all arrival patterns, so accepted tasksets must also
// survive jittered sporadic releases.

#include <gtest/gtest.h>

#include "analysis/engine.hpp"
#include "gen/generator.hpp"
#include "sim/engine.hpp"
#include "task/fixtures.hpp"
#include "task/io.hpp"

namespace reconf::sim {
namespace {

TEST(Sporadic, ReleasesRespectMinimumSeparation) {
  const TaskSet ts({make_task(1, 5, 5, 4)});
  SimConfig cfg;
  cfg.arrivals = ArrivalModel::kSporadic;
  cfg.sporadic_jitter = 0.5;
  cfg.arrival_seed = 42;
  cfg.horizon = 10'000;
  const auto r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
  // With jitter up to 0.5·T the expected inter-arrival is 1.25·T, so the
  // job count is strictly between horizon/(1.5T) and horizon/T.
  EXPECT_LT(r.jobs_released, 10'000u / 500u);
  EXPECT_GE(r.jobs_released, 10'000u / 750u);
}

TEST(Sporadic, ZeroJitterEqualsPeriodic) {
  const TaskSet ts = fixtures::paper_table1();
  SimConfig periodic;
  SimConfig sporadic;
  sporadic.arrivals = ArrivalModel::kSporadic;
  sporadic.sporadic_jitter = 0.0;
  const auto a = simulate(ts, fixtures::paper_device_small(), periodic);
  const auto b = simulate(ts, fixtures::paper_device_small(), sporadic);
  EXPECT_EQ(a.jobs_released, b.jobs_released);
  EXPECT_EQ(a.busy_area_time, b.busy_area_time);
  EXPECT_EQ(a.schedulable, b.schedulable);
}

TEST(Sporadic, DeterministicPerSeed) {
  const TaskSet ts = fixtures::paper_table1();
  SimConfig cfg;
  cfg.arrivals = ArrivalModel::kSporadic;
  cfg.arrival_seed = 7;
  const auto a = simulate(ts, fixtures::paper_device_small(), cfg);
  const auto b = simulate(ts, fixtures::paper_device_small(), cfg);
  EXPECT_EQ(a.jobs_released, b.jobs_released);
  EXPECT_EQ(a.busy_area_time, b.busy_area_time);

  cfg.arrival_seed = 8;
  const auto c = simulate(ts, fixtures::paper_device_small(), cfg);
  EXPECT_NE(a.busy_area_time, c.busy_area_time);  // different stream
}

TEST(Sporadic, AcceptedTasksetsSurviveJitteredArrivals) {
  const Device dev{100};
  const analysis::AnalysisEngine trio{analysis::AnalysisRequest{}};
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 30 && checked < 8; ++seed) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(6);
    req.target_system_util = 15.0;
    req.seed = seed;
    const auto ts = gen::generate_with_retries(req);
    if (!ts || !trio.run(*ts, dev).accepted()) continue;
    ++checked;

    for (std::uint64_t arrival_seed = 0; arrival_seed < 3; ++arrival_seed) {
      SimConfig cfg;
      cfg.arrivals = ArrivalModel::kSporadic;
      cfg.sporadic_jitter = 0.7;
      cfg.arrival_seed = arrival_seed;
      cfg.horizon_periods = 60;
      const auto run = simulate(*ts, dev, cfg);
      EXPECT_TRUE(run.schedulable)
          << "accepted taskset missed under sporadic arrivals, seed "
          << seed << "/" << arrival_seed << "\n"
          << io::to_string(*ts, dev);
    }
  }
  EXPECT_GE(checked, 3);
}

TEST(Sporadic, JitterReducesLoadUnderOverload) {
  // Under overload, stretching inter-arrivals strictly reduces released
  // jobs; with enough jitter a miss-prone set can become schedulable in
  // the observed window.
  const TaskSet ts({make_task(3, 5, 5, 10), make_task(3, 5, 5, 10)});
  SimConfig periodic;
  periodic.stop_on_first_miss = false;
  periodic.horizon = 5000;
  const auto dense = simulate(ts, Device{10}, periodic);

  SimConfig cfg = periodic;
  cfg.arrivals = ArrivalModel::kSporadic;
  cfg.sporadic_jitter = 1.0;
  cfg.arrival_seed = 3;
  const auto sparse = simulate(ts, Device{10}, cfg);
  EXPECT_LT(sparse.jobs_released, dense.jobs_released);
  EXPECT_LE(sparse.deadline_misses, dense.deadline_misses);
}

TEST(Sporadic, ArrivalModelNamesAreStable) {
  EXPECT_STREQ(to_string(ArrivalModel::kPeriodic), "periodic");
  EXPECT_STREQ(to_string(ArrivalModel::kSporadic), "sporadic");
}

}  // namespace
}  // namespace reconf::sim
