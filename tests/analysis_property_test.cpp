// Structural properties of the three bound tests beyond the paper's
// worked examples: permutation invariance, monotonicity in device width and
// execution times, and behaviour under task-set extension. Where a theorem's
// form makes a property false in general (GN2's λ-candidate pool changes
// when tasks are added), the test documents that instead of asserting it.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dp.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "common/rng.hpp"
#include "gen/generator.hpp"
#include "task/io.hpp"

namespace reconf::analysis {
namespace {

std::optional<TaskSet> sample(std::uint64_t seed, int n, double us) {
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(n);
  req.target_system_util = us;
  req.seed = seed;
  return gen::generate_with_retries(req);
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep, VerdictsArePermutationInvariant) {
  const auto ts = sample(GetParam(), 8, 25.0);
  if (!ts) GTEST_SKIP();
  const Device dev{100};

  std::vector<Task> shuffled(ts->begin(), ts->end());
  Xoshiro256ss rng(GetParam());
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  const TaskSet perm{std::move(shuffled)};

  EXPECT_EQ(dp_test(*ts, dev).accepted(), dp_test(perm, dev).accepted());
  EXPECT_EQ(gn1_test(*ts, dev).accepted(), gn1_test(perm, dev).accepted());
  EXPECT_EQ(gn2_test(*ts, dev).accepted(), gn2_test(perm, dev).accepted());
}

TEST_P(PropertySweep, WiderDeviceNeverHurts) {
  const auto ts = sample(GetParam() ^ 0xA1, 8, 30.0);
  if (!ts) GTEST_SKIP();
  for (const Area w : {100, 120, 150, 200}) {
    const Device narrow{w};
    const Device wide{w + 25};
    if (dp_test(*ts, narrow).accepted()) {
      EXPECT_TRUE(dp_test(*ts, wide).accepted());
    }
    if (gn1_test(*ts, narrow).accepted()) {
      EXPECT_TRUE(gn1_test(*ts, wide).accepted());
    }
    if (gn2_test(*ts, narrow).accepted()) {
      EXPECT_TRUE(gn2_test(*ts, wide).accepted());
    }
  }
}

TEST_P(PropertySweep, InflatingWcetNeverFlipsRejectToAccept) {
  const auto ts = sample(GetParam() ^ 0xB2, 8, 30.0);
  if (!ts) GTEST_SKIP();
  const Device dev{100};

  // Inflate one task's WCET by 10% (respecting C <= min(D,T)).
  for (std::size_t victim = 0; victim < ts->size(); victim += 3) {
    std::vector<Ticks> extra(ts->size(), 0);
    const Task& t = (*ts)[victim];
    extra[victim] = std::min<Ticks>(t.wcet / 10 + 1,
                                    std::min(t.deadline, t.period) - t.wcet);
    if (extra[victim] <= 0) continue;
    const TaskSet inflated = ts->with_wcet_increased(extra);

    if (dp_test(inflated, dev).accepted()) {
      EXPECT_TRUE(dp_test(*ts, dev).accepted()) << io::to_string(*ts, dev);
    }
    if (gn1_test(inflated, dev).accepted()) {
      EXPECT_TRUE(gn1_test(*ts, dev).accepted()) << io::to_string(*ts, dev);
    }
    // GN2 is deliberately omitted: its λ-candidate pool {C_i/T_i} moves
    // with the WCETs, so acceptance is not formally monotone in C even
    // though violations are rare in practice.
  }
}

TEST_P(PropertySweep, RemovingATaskNeverFlipsAcceptToReject) {
  const auto ts = sample(GetParam() ^ 0xC3, 8, 25.0);
  if (!ts) GTEST_SKIP();
  const Device dev{100};

  const bool dp_all = dp_test(*ts, dev).accepted();
  const bool gn1_all = gn1_test(*ts, dev).accepted();
  if (!dp_all && !gn1_all) return;

  for (std::size_t drop = 0; drop < ts->size(); drop += 2) {
    std::vector<Task> rest;
    for (std::size_t i = 0; i < ts->size(); ++i) {
      if (i != drop) rest.push_back((*ts)[i]);
    }
    const TaskSet subset{std::move(rest)};
    if (dp_all) {
      EXPECT_TRUE(dp_test(subset, dev).accepted())
          << "dropped " << drop << "\n"
          << io::to_string(*ts, dev);
    }
    if (gn1_all) {
      EXPECT_TRUE(gn1_test(subset, dev).accepted())
          << "dropped " << drop << "\n"
          << io::to_string(*ts, dev);
    }
    // GN2 omitted for the same candidate-pool reason as above.
  }
}

TEST_P(PropertySweep, DiagnosticsCoverEveryTask) {
  const auto ts = sample(GetParam() ^ 0xD4, 6, 20.0);
  if (!ts) GTEST_SKIP();
  const Device dev{100};
  for (const auto& report :
       {dp_test(*ts, dev), gn1_test(*ts, dev), gn2_test(*ts, dev)}) {
    ASSERT_EQ(report.per_task.size(), ts->size()) << report.test_name;
    for (std::size_t k = 0; k < report.per_task.size(); ++k) {
      EXPECT_EQ(report.per_task[k].task_index, k);
    }
    if (report.accepted()) {
      for (const auto& d : report.per_task) EXPECT_TRUE(d.pass);
    } else if (report.note.empty()) {
      ASSERT_TRUE(report.first_failing_task.has_value());
      EXPECT_FALSE(report.per_task[*report.first_failing_task].pass);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<std::uint64_t>(1, 25));

// ------------------------------------------------------------- directed --
TEST(Gn2Lambda, ReportsAWitnessCandidate) {
  // On acceptance GN2 must name the λ that satisfied a condition, and that
  // λ must be one of the discontinuity candidates (here: C_1/T_1 = 0.42 or
  // C_2/T_2 = 2/7).
  const TaskSet ts({make_task(2.10, 5, 5, 7), make_task(2.00, 7, 7, 7)});
  const auto r = gn2_test(ts, Device{10});
  ASSERT_TRUE(r.accepted());
  for (const auto& d : r.per_task) {
    EXPECT_TRUE(std::abs(d.lambda - 0.42) < 1e-9 ||
                std::abs(d.lambda - 2.0 / 7.0) < 1e-9)
        << d.lambda;
  }
}

TEST(Gn2Lambda, CandidatesBelowUkAreSkipped) {
  // τ2 heavy (u = 0.9): for k=2 only λ ≥ 0.9 candidates are admissible, so
  // a passing λ can never be τ1's 0.1.
  const TaskSet ts({make_task(1, 10, 10, 2), make_task(9, 10, 10, 2)});
  const auto r = gn2_test(ts, Device{100});
  ASSERT_TRUE(r.accepted());
  EXPECT_GE(r.per_task[1].lambda, 0.9 - 1e-9);
}

TEST(DpDiagnostics, LhsIsSystemUtilizationForEveryK) {
  const TaskSet ts({make_task(2, 8, 8, 10), make_task(3, 12, 12, 20)});
  const auto r = dp_test(ts, Device{100});
  for (const auto& d : r.per_task) {
    EXPECT_NEAR(d.lhs, ts.system_utilization(), 1e-12);
  }
}

}  // namespace
}  // namespace reconf::analysis
