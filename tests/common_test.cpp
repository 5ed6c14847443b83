#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.hpp"
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

}  // namespace
}  // namespace reconf
