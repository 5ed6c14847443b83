#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.hpp"
#include "common/minimize.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace reconf {
namespace {

TEST(Types, TickConversionRoundTripsPaperValues) {
  EXPECT_EQ(ticks_from_units(1.26), 126);
  EXPECT_EQ(ticks_from_units(0.95), 95);
  EXPECT_EQ(ticks_from_units(7.0), 700);
  EXPECT_DOUBLE_EQ(units_from_ticks(126), 1.26);
  EXPECT_DOUBLE_EQ(units_from_ticks(95), 0.95);
}

TEST(Types, TickConversionHonorsCustomScale) {
  EXPECT_EQ(ticks_from_units(2.5, 1000), 2500);
  EXPECT_DOUBLE_EQ(units_from_ticks(2500, 1000), 2.5);
}

TEST(Types, TickConversionRoundsToNearest) {
  EXPECT_EQ(ticks_from_units(0.004), 0);   // 0.4 ticks -> 0
  EXPECT_EQ(ticks_from_units(0.006), 1);   // 0.6 ticks -> 1
  EXPECT_EQ(ticks_from_units(-0.006), -1);
}

TEST(Types, DeviceValidity) {
  EXPECT_TRUE(Device{10}.valid());
  EXPECT_FALSE(Device{0}.valid());
  EXPECT_FALSE(Device{-3}.valid());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, HandlesZeroIterations) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallbackPreservesOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  constexpr std::size_t kN = 4096;
  auto run = [&](unsigned threads) {
    std::vector<double> out(kN);
    parallel_for(
        kN, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
        threads);
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  const double expect = run(1);
  EXPECT_DOUBLE_EQ(run(2), expect);
  EXPECT_DOUBLE_EQ(run(8), expect);
}

// ------------------------------------------------------------- flags ----

TEST(Flags, ParseIntIsStrictDecimalOrHex) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("0xC4A05"), 0xC4A05);
  EXPECT_EQ(parse_int("0XFF"), 255);
  EXPECT_EQ(parse_int("010"), 10);  // decimal, never octal
  for (const char* bad : {"", "abc", "12abc", " 12", "+12", "0x", "0x-5",
                          "1e3", "99999999999999999999"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Flags, LookupMatchesTheWholeName) {
  const std::vector<std::string> args = {"--n=5", "--name=x", "--quick",
                                         "--seed=0x10", "--n=6", "file"};
  EXPECT_EQ(flag_value(args, "n"), "5");  // first match wins
  EXPECT_EQ(flag_str(args, "name"), "x");
  EXPECT_FALSE(flag_value(args, "nam").has_value());
  EXPECT_EQ(flag_str(args, "absent"), "");
  EXPECT_EQ(flag_int(args, "seed"), 16);
  EXPECT_FALSE(flag_int(args, "absent").has_value());
  EXPECT_TRUE(has_flag(args, "quick"));
  EXPECT_FALSE(has_flag(args, "qui"));
  EXPECT_FALSE(has_flag(args, "n"));  // takes a value, so never bare
}

TEST(Flags, KnownFlagTableSeparatesValuedAndBareFlags) {
  static const char* const known[] = {"--port=", "--quick"};
  EXPECT_TRUE(is_known_flag("--port=80", known));
  EXPECT_TRUE(is_known_flag("--quick", known));
  EXPECT_FALSE(is_known_flag("--port", known));
  EXPECT_FALSE(is_known_flag("--quick=1", known));
  EXPECT_FALSE(is_known_flag("--label=x", known));
  EXPECT_FALSE(is_known_flag("file", known));
}

TEST(FlagsDeathTest, BadIntegerExitsTwoWithAMessage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<std::string> args = {"--n=abc"};
  EXPECT_EXIT((void)flag_int(args, "n"), ::testing::ExitedWithCode(2),
              "invalid value for --n: 'abc'");
}

TEST(Flags, IntFlagReadsInRangeValuesAndFallsBack) {
  const std::vector<std::string> args = {"--n=5", "--seed=0x10", "--lo=1"};
  EXPECT_EQ(int_flag(args, "n", 9, 1, 10), 5);
  EXPECT_EQ(int_flag(args, "seed", 0, 0, kMaxLong), 16);
  EXPECT_EQ(int_flag(args, "lo", 0, 1, 1), 1);  // bounds are inclusive
  EXPECT_EQ(int_flag(args, "absent", 9, 1, 10), 9);
}

TEST(FlagsDeathTest, OutOfRangeIntegerExitsTwoWithAMessage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<std::string> low = {"--arrivals=0"};
  EXPECT_EXIT((void)int_flag(low, "arrivals", 10, 1, kMaxInt),
              ::testing::ExitedWithCode(2),
              "--arrivals must be in \\[1, 2147483647\\], got 0");
  const std::vector<std::string> high = {"--dup-ratio=101"};
  EXPECT_EXIT((void)int_flag(high, "dup-ratio", 0, 0, 100),
              ::testing::ExitedWithCode(2),
              "--dup-ratio must be in \\[0, 100\\], got 101");
  const std::vector<std::string> garbage = {"--rho=x"};
  EXPECT_EXIT((void)int_flag(garbage, "rho", 0, 0, kMaxLong),
              ::testing::ExitedWithCode(2), "invalid value for --rho: 'x'");
}

// ---------------------------------------------------------- minimize ----

/// A synthetic case for the minimizer: removable parts with two integer
/// fields, and one case-wide integer.
struct Part {
  std::int64_t weight = 0;  ///< floor 1
  std::int64_t level = 0;   ///< floor 3
};

struct Bundle {
  std::vector<Part> parts;
  std::int64_t capacity = 0;  ///< floor 1
};

using BundleMinimizer = minimize::Minimizer<Bundle, Part>;

constexpr minimize::Field<Part> kPartFields[] = {
    {[](const Part& p) { return p.weight; },
     [](Part& p, std::int64_t v) { p.weight = v; },
     [](const Part&) -> std::int64_t { return 1; }},
    {[](const Part& p) { return p.level; },
     [](Part& p, std::int64_t v) { p.level = v; },
     [](const Part&) -> std::int64_t { return 3; }},
};

constexpr minimize::Field<Bundle> kCapacity[] = {
    {[](const Bundle& b) { return b.capacity; },
     [](Bundle& b, std::int64_t v) { b.capacity = v; },
     [](const Bundle&) -> std::int64_t { return 1; }},
};

constexpr BundleMinimizer::Shape kBundleShape{&Bundle::parts, 0, kPartFields,
                                              kCapacity, {}};

/// Monotone: fails while three parts sit at level 7 or above, their
/// weights sum to 40 or more and the capacity is at least 5. Parts below
/// level 7 count for nothing, so each must go.
bool bundle_fails(const Bundle& b) {
  int high = 0;
  std::int64_t weight = 0;
  for (const Part& p : b.parts) {
    if (p.level < 7) continue;
    ++high;
    weight += p.weight;
  }
  return high >= 3 && weight >= 40 && b.capacity >= 5;
}

TEST(Minimize, ResultIsOneMinimalUnderAMonotonePredicate) {
  // Every prefix of one part list that fails: some need single parts
  // dropped, some runs or pairs.
  std::vector<Part> pool;
  for (std::int64_t i = 0; i < 12; ++i) {
    pool.push_back({3 + (i * 7) % 11, 3 + (i * 5) % 13});
  }
  int cases = 0;
  for (std::size_t n = 1; n <= pool.size(); ++n) {
    const Bundle start{
        {pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(n)}, 1000};
    if (!bundle_fails(start)) continue;
    ++cases;
    const minimize::Outcome<Bundle> out =
        BundleMinimizer::run(kBundleShape, start, bundle_fails);
    EXPECT_FALSE(out.hit_eval_budget);
    ASSERT_TRUE(bundle_fails(out.best));
    EXPECT_EQ(out.best.capacity, 5);
    Bundle lowered = out.best;
    --lowered.capacity;
    EXPECT_FALSE(bundle_fails(lowered));
    for (std::size_t i = 0; i < out.best.parts.size(); ++i) {
      Bundle dropped = out.best;
      dropped.parts.erase(dropped.parts.begin() +
                          static_cast<std::ptrdiff_t>(i));
      EXPECT_FALSE(bundle_fails(dropped))
          << "prefix " << n << ": part " << i << " can go";
      for (const minimize::Field<Part>& f : kPartFields) {
        const Part& p = out.best.parts[i];
        ASSERT_GE(f.get(p), f.floor(p)) << "prefix " << n << ": part " << i;
        if (f.get(p) == f.floor(p)) continue;
        lowered = out.best;
        f.set(lowered.parts[i], f.get(p) - 1);
        EXPECT_FALSE(bundle_fails(lowered))
            << "prefix " << n << ": a field of part " << i << " can drop";
      }
    }
  }
  EXPECT_GE(cases, 5);
}

TEST(Minimize, StopsAtExactlyTheBudgetWithAFailingResult) {
  // 400 parts of which 300 must stay: the pair pass alone tries 44,850
  // pairs, so the budget ends while the weights are being bisected.
  Bundle start;
  start.capacity = 1 << 20;
  for (int i = 0; i < 400; ++i) start.parts.push_back({1 << 20, 1 << 20});
  const auto fails = [](const Bundle& b) {
    if (b.parts.size() < 300) return false;
    for (const Part& p : b.parts) {
      if (p.weight < 1000) return false;
    }
    return true;
  };

  const minimize::Outcome<Bundle> out =
      BundleMinimizer::run(kBundleShape, start, fails);
  EXPECT_EQ(out.evals, minimize::kEvalBudget);
  EXPECT_TRUE(out.hit_eval_budget);
  EXPECT_EQ(out.best.parts.size(), 300u);
  EXPECT_TRUE(fails(out.best));
}

}  // namespace
}  // namespace reconf
