#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gen/generator.hpp"

namespace reconf::gen {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DerivedSeedsDiffer) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(derive_seed(7, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256ss rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsCentered) {
  Xoshiro256ss rng(2);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Xoshiro256ss rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(1, 6);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Generator, ProducesRequestedShape) {
  GenRequest req;
  req.profile = GenProfile::unconstrained(10);
  req.seed = 99;
  const auto ts = generate(req);
  ASSERT_TRUE(ts.has_value());
  EXPECT_EQ(ts->size(), 10u);
  for (const Task& t : *ts) {
    EXPECT_GE(t.area, 1);
    EXPECT_LE(t.area, 100);
    EXPECT_GT(t.period, 500);   // > 5 units
    EXPECT_LT(t.period, 2000);  // < 20 units
    EXPECT_EQ(t.deadline, t.period);
    EXPECT_GE(t.wcet, 1);
    EXPECT_LE(t.wcet, t.period);
  }
}

TEST(Generator, IsDeterministicPerSeed) {
  GenRequest req;
  req.profile = GenProfile::unconstrained(8);
  req.seed = 1234;
  const auto a = generate(req);
  const auto b = generate(req);
  ASSERT_TRUE(a && b);
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].wcet, (*b)[i].wcet);
    EXPECT_EQ((*a)[i].period, (*b)[i].period);
    EXPECT_EQ((*a)[i].area, (*b)[i].area);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GenRequest a;
  a.profile = GenProfile::unconstrained(8);
  a.seed = 1;
  GenRequest b = a;
  b.seed = 2;
  const auto ta = generate(a);
  const auto tb = generate(b);
  ASSERT_TRUE(ta && tb);
  bool any_diff = false;
  for (std::size_t i = 0; i < ta->size(); ++i) {
    any_diff = any_diff || (*ta)[i].period != (*tb)[i].period ||
               (*ta)[i].area != (*tb)[i].area;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, HitsSystemUtilizationTarget) {
  for (const double target : {10.0, 25.0, 50.0, 80.0}) {
    GenRequest req;
    req.profile = GenProfile::unconstrained(10);
    req.target_system_util = target;
    req.seed = 777;
    const auto ts = generate_with_retries(req);
    ASSERT_TRUE(ts.has_value()) << "target " << target;
    EXPECT_NEAR(ts->system_utilization(), target, req.target_tolerance)
        << "target " << target;
  }
}

TEST(Generator, TargetRespectsPerTaskCaps) {
  GenRequest req;
  req.profile = GenProfile::unconstrained(6);
  req.target_system_util = 60.0;
  req.seed = 4242;
  const auto ts = generate_with_retries(req);
  ASSERT_TRUE(ts.has_value());
  for (const Task& t : *ts) {
    EXPECT_LE(t.wcet, t.period);
    EXPECT_GE(t.wcet, 1);
  }
}

TEST(Generator, UnreachableTargetFails) {
  // 2 tasks with area <= 2: U_S can never reach 50.
  GenProfile p = GenProfile::unconstrained(2);
  p.area_max = 2;
  GenRequest req;
  req.profile = p;
  req.target_system_util = 50.0;
  req.seed = 5;
  EXPECT_FALSE(generate_with_retries(req, 8).has_value());
}

TEST(Generator, SpatiallyHeavyProfileBounds) {
  GenRequest req;
  req.profile = GenProfile::spatially_heavy_time_light(10);
  req.seed = 31;
  const auto ts = generate(req);
  ASSERT_TRUE(ts.has_value());
  for (const Task& t : *ts) {
    EXPECT_GE(t.area, 50);
    EXPECT_LE(t.area, 100);
    EXPECT_LE(t.time_utilization(), 0.31);  // light in time
  }
}

TEST(Generator, SpatiallyLightTimeHeavyProfileBounds) {
  GenRequest req;
  req.profile = GenProfile::spatially_light_time_heavy(10);
  req.seed = 32;
  const auto ts = generate(req);
  ASSERT_TRUE(ts.has_value());
  for (const Task& t : *ts) {
    EXPECT_LE(t.area, 30);
    EXPECT_GE(t.time_utilization(), 0.45);  // heavy in time (rounding slack)
  }
}

TEST(Generator, ConstrainedDeadlineProfile) {
  GenProfile p = GenProfile::unconstrained(5);
  p.deadline_ratio_min = 0.5;
  p.deadline_ratio_max = 0.8;
  GenRequest req;
  req.profile = p;
  req.seed = 64;
  const auto ts = generate(req);
  ASSERT_TRUE(ts.has_value());
  for (const Task& t : *ts) {
    EXPECT_LT(t.deadline, t.period);
    EXPECT_LE(t.wcet, t.deadline);
  }
}

TEST(Generator, RetriesRecoverFromHardSeeds) {
  // With retries the generator should succeed for a reachable target even
  // if some seeds draw a bad hand. (For this profile U_S must lie within
  // [0.5·ΣA, ΣA]; 90 sits inside the typical area-sum range.)
  GenRequest req;
  req.profile = GenProfile::spatially_light_time_heavy(10);
  req.target_system_util = 90.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    req.seed = seed;
    EXPECT_TRUE(generate_with_retries(req).has_value()) << "seed " << seed;
  }
}

TEST(Generator, RetargetingPreservesProfileUtilizationRange) {
  // The class semantics must survive U_S targeting: a temporally-heavy
  // profile keeps every u within [0.5, 1] (one-tick rounding slack), and
  // unreachable targets fail rather than silently leaving the class.
  GenRequest req;
  req.profile = GenProfile::spatially_light_time_heavy(10);
  req.target_system_util = 90.0;
  req.seed = 9090;
  const auto ts = generate_with_retries(req);
  ASSERT_TRUE(ts.has_value());
  EXPECT_NEAR(ts->system_utilization(), 90.0, req.target_tolerance);
  for (const Task& t : *ts) {
    EXPECT_GE(t.time_utilization(), 0.5 - 2e-3);
    EXPECT_LE(t.time_utilization(), 1.0);
  }
}

TEST(Generator, TargetOutsideProfileRangeFails) {
  // Temporally-heavy tasks cannot produce U_S far below 0.5·ΣA; a target of
  // 8 with 10 tasks of area >= 10... is unreachable within the class.
  GenProfile p = GenProfile::spatially_light_time_heavy(10);
  p.area_min = 10;  // force ΣA >= 100, so min U_S ≈ 50
  GenRequest req;
  req.profile = p;
  req.target_system_util = 8.0;
  req.seed = 3;
  EXPECT_FALSE(generate_with_retries(req, 8).has_value());
}

}  // namespace
}  // namespace reconf::gen
