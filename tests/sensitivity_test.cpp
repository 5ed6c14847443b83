#include <gtest/gtest.h>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/sensitivity.hpp"
#include "sim/engine.hpp"
#include "task/fixtures.hpp"

namespace reconf::analysis {
namespace {

AcceptPredicate dp_pred() {
  return [](const TaskSet& ts, Device dev) {
    return dp_test(ts, dev).accepted();
  };
}

AcceptPredicate sim_pred() {
  return [](const TaskSet& ts, Device dev) {
    return sim::simulate(ts, dev).schedulable;
  };
}

TEST(ScaleWcets, ScalesAndClamps) {
  const TaskSet ts({make_task(2, 5, 5, 4)});
  EXPECT_EQ(scale_wcets(ts, 1500)[0].wcet, 300);
  EXPECT_EQ(scale_wcets(ts, 500)[0].wcet, 100);
  EXPECT_EQ(scale_wcets(ts, 0)[0].wcet, 1);        // floor at one tick
  EXPECT_EQ(scale_wcets(ts, 10000)[0].wcet, 500);  // cap at min(D, T)
}

TEST(CriticalScale, ExactOnAnalyticBound) {
  // Single task, A=10 on A(H)=10: DP accepts iff U_S = 10·C/T ≤ A_bnd·(1−u)
  // + 10u with A_bnd = 1 → accepts iff 10u ≤ 1 + 9u ⟺ u ≤ 1: always. Use
  // two tasks to get a real boundary instead.
  const TaskSet ts({make_task(1, 10, 10, 6), make_task(1, 10, 10, 6)});
  const Device dev{10};
  const auto crit = critical_wcet_scale_permille(ts, dev, dp_pred());
  ASSERT_TRUE(crit.has_value());
  // The found point passes; the next permille fails (bisection contract).
  EXPECT_TRUE(dp_pred()(scale_wcets(ts, *crit), dev));
  if (*crit < 4000) {
    EXPECT_FALSE(dp_pred()(scale_wcets(ts, *crit + 1), dev));
  }
}

TEST(CriticalScale, SimulationDominatesBoundTests) {
  // The simulator's critical scale is an upper bound on any sound test's
  // critical scale for the same scheduler (pessimism quantified).
  const TaskSet ts = fixtures::paper_table1();
  const Device dev = fixtures::paper_device_small();
  const auto test_crit = critical_wcet_scale_permille(ts, dev, dp_pred());
  const auto sim_crit = critical_wcet_scale_permille(ts, dev, sim_pred());
  ASSERT_TRUE(test_crit && sim_crit);
  EXPECT_LE(*test_crit, *sim_crit);
  EXPECT_GE(*test_crit, 1000);  // Table 1 is DP-accepted at factor 1.0
}

TEST(CriticalScale, RejectsWhenEvenFloorFails) {
  // A task wider than the device fails at any scaling.
  const TaskSet ts({make_task(1, 5, 5, 12)});
  EXPECT_FALSE(
      critical_wcet_scale_permille(ts, Device{10}, dp_pred()).has_value());
}

TEST(CriticalScale, EmptyTasksetSaturates) {
  EXPECT_EQ(critical_wcet_scale_permille(TaskSet{}, Device{10}, dp_pred()),
            4000);
}

TEST(MinWidth, FindsExactThreshold) {
  const TaskSet ts = fixtures::paper_table1();
  const auto w = min_feasible_width(ts, dp_pred(), 100);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(dp_pred()(ts, Device{*w}));
  EXPECT_FALSE(dp_pred()(ts, Device{static_cast<Area>(*w - 1)}));
  EXPECT_EQ(*w, 10);  // Table 1 sits exactly on the A(H)=10 boundary
}

TEST(MinWidth, RespectsAmaxFloor) {
  const TaskSet ts({make_task(1, 10, 10, 7)});
  const auto w = min_feasible_width(ts, dp_pred(), 100);
  ASSERT_TRUE(w.has_value());
  EXPECT_GE(*w, 7);
}

TEST(MinWidth, NulloptWhenCapTooSmall) {
  const TaskSet ts({make_task(1, 10, 10, 50)});
  EXPECT_FALSE(min_feasible_width(ts, dp_pred(), 40).has_value());
}

TEST(MinWidth, CompositeNeedsNoMoreThanAnyMember) {
  const TaskSet ts = fixtures::paper_table3();
  const AnalysisEngine trio{AnalysisRequest{}};
  const auto any = min_feasible_width(
      ts,
      [&trio](const TaskSet& t, Device d) {
        return trio.run(t, d).accepted();
      },
      200);
  const auto dp_only = min_feasible_width(ts, dp_pred(), 200);
  ASSERT_TRUE(any && dp_only);
  EXPECT_LE(*any, *dp_only);
  EXPECT_LE(*any, 10);  // GN2 accepts Table 3 at A(H) = 10
}

}  // namespace
}  // namespace reconf::analysis
