#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "math/checked.hpp"
#include "math/gcd_lcm.hpp"
#include "math/intdiv.hpp"
#include "math/rational.hpp"
#include "math/stats.hpp"

namespace reconf::math {
namespace {

TEST(IntDiv, FloorDivMatchesTruncationForNonNegative) {
  EXPECT_EQ(floor_div(0, 3), 0);
  EXPECT_EQ(floor_div(6, 3), 2);
  EXPECT_EQ(floor_div(7, 3), 2);
  EXPECT_EQ(floor_div(1, 700), 0);
}

TEST(IntDiv, FloorDivRoundsNegativeNumeratorsDown) {
  // The N_i window count ⌊(D_k − D_i)/T_i⌋ hits these when D_k < D_i:
  // truncation would give 0, mathematical floor must give −1.
  EXPECT_EQ(floor_div(-1, 3), -1);
  EXPECT_EQ(floor_div(-3, 3), -1);
  EXPECT_EQ(floor_div(-4, 3), -2);
  EXPECT_EQ(floor_div(-699, 700), -1);
  EXPECT_EQ(floor_div(-700, 700), -1);
  EXPECT_EQ(floor_div(-701, 700), -2);
}

TEST(IntDiv, FloorDivIsConstexpr) {
  static_assert(floor_div(-1, 2) == -1);
  static_assert(floor_div(5, 2) == 2);
}

TEST(Checked, AddDetectsOverflow) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_FALSE(checked_add(std::numeric_limits<std::int64_t>::max(), 1));
  EXPECT_FALSE(checked_add(std::numeric_limits<std::int64_t>::min(), -1));
}

TEST(Checked, MulDetectsOverflow) {
  EXPECT_EQ(checked_mul(1'000'000, 1'000'000), 1'000'000'000'000);
  EXPECT_FALSE(checked_mul(std::numeric_limits<std::int64_t>::max(), 2));
}

TEST(GcdLcm, Basics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(0, 5), 0);
}

TEST(GcdLcm, LcmOverflowIsDetected) {
  const std::int64_t big = (std::int64_t{1} << 62) + 1;  // odd
  EXPECT_FALSE(lcm64(big, big - 2));                     // coprime-ish, huge
}

TEST(GcdLcm, LcmAllComputesHyperperiod) {
  const std::vector<std::int64_t> periods{700, 500};
  EXPECT_EQ(lcm_all(periods), 3500);
}

TEST(GcdLcm, LcmAllEmptyIsOne) {
  EXPECT_EQ(lcm_all(std::vector<std::int64_t>{}), 1);
}

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
  const Rational n(3, -4);
  EXPECT_EQ(n.num(), -3);
  EXPECT_EQ(n.den(), 4);
  const Rational z(0, 17);
  EXPECT_EQ(z.num(), 0);
  EXPECT_EQ(z.den(), 1);
}

TEST(Rational, ArithmeticIsExact) {
  const Rational a(1, 3);
  const Rational b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
}

TEST(Rational, ComparisonUsesCrossMultiplication) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  // Values whose double representations collide still compare exactly:
  const Rational x(10'000'000'000'000'001, 10'000'000'000'000'000);
  EXPECT_GT(x, Rational(1));
}

TEST(Rational, PaperUtilizationValuesAreExact) {
  // u1 = 1.26/7 = 126/700 = 9/50, u2 = 0.95/5 = 95/500 = 19/100 (Table 1).
  const Rational u1(126, 700);
  const Rational u2(95, 500);
  EXPECT_EQ(u1, Rational(9, 50));
  EXPECT_EQ(u2, Rational(19, 100));
  // U_S = 9*u1 + 6*u2 = 81/50 + 114/100 = 276/100 = 69/25.
  const Rational us = Rational(9) * u1 + Rational(6) * u2;
  EXPECT_EQ(us, Rational(69, 25));
}

TEST(Rational, UnaryMinusAndCompoundOps) {
  Rational r(3, 4);
  r += Rational(1, 4);
  EXPECT_EQ(r, Rational(1));
  r -= Rational(1, 2);
  EXPECT_EQ(r, Rational(1, 2));
  r *= Rational(4);
  EXPECT_EQ(r, Rational(2));
  r /= Rational(-8);
  EXPECT_EQ(r, Rational(-1, 4));
  EXPECT_EQ(-r, Rational(1, 4));
}

/// The int128 path's reduction, written out independently: Euclid on the
/// unreduced int128 result, denominator made positive.
std::pair<math::Int128, math::Int128> reduce_i128(math::Int128 n,
                                                  math::Int128 d) {
  if (d < 0) {
    n = -n;
    d = -d;
  }
  math::Int128 a = n < 0 ? -n : n;
  math::Int128 b = d;
  while (b != 0) {
    const math::Int128 t = a % b;
    a = b;
    b = t;
  }
  return {n / a, d / a};
}

bool fits_i64(math::Int128 v) {
  return v >= math::Int128{INT64_MIN} && v <= math::Int128{INT64_MAX};
}

/// How many results expect_ops_match_int128 compared, and how many of those
/// were wider than int64 before reduction (the int128 path's share).
struct Compared {
  int all = 0;
  int wide = 0;
};

/// Checks the four operations on (a, b) against reduce_i128 of their
/// unreduced int128 results, wherever the reduced result fits in int64.
Compared expect_ops_match_int128(const Rational& a, const Rational& b) {
  using math::Int128;
  const Int128 an = a.num(), ad = a.den(), bn = b.num(), bd = b.den();
  struct Op {
    const char* name;
    Int128 n, d;
    Rational (*apply)(const Rational&, const Rational&);
  };
  const Op ops[] = {
      {"+", an * bd + bn * ad, ad * bd,
       [](const Rational& x, const Rational& y) { return x + y; }},
      {"-", an * bd - bn * ad, ad * bd,
       [](const Rational& x, const Rational& y) { return x - y; }},
      {"*", an * bn, ad * bd,
       [](const Rational& x, const Rational& y) { return x * y; }},
      {"/", an * bd, ad * bn,
       [](const Rational& x, const Rational& y) { return x / y; }},
  };
  Compared compared;
  for (const Op& op : ops) {
    if (op.d == 0) continue;  // division by zero
    const auto [num, den] = reduce_i128(op.n, op.d);
    if (!fits_i64(num) || !fits_i64(den)) continue;
    const Rational got = op.apply(a, b);
    EXPECT_EQ(got.num(), static_cast<std::int64_t>(num))
        << a << " " << op.name << " " << b;
    EXPECT_EQ(got.den(), static_cast<std::int64_t>(den))
        << a << " " << op.name << " " << b;
    ++compared.all;
    if (!fits_i64(op.n) || !fits_i64(op.d)) ++compared.wide;
  }
  return compared;
}

// Results that fit in int64 reduce with an int64 gcd, wider ones with the
// int128 Euclid loop; both must give the int128 reduction's terms.
TEST(Rational, Int64NormalizationMatchesTheInt128Path) {
  Xoshiro256ss rng(0x4A71'0001);
  const std::int64_t bounds[] = {10, 1'000, std::int64_t{1} << 31,
                                 std::int64_t{1} << 40,
                                 std::int64_t{1} << 62, INT64_MAX};
  Compared compared;
  for (int i = 0; i < 20'000; ++i) {
    const std::int64_t hi = bounds[rng.uniform_int(0, 5)];
    // Magnitude and sign apart: uniform_int's span must fit in int64.
    const auto draw = [&](bool positive) {
      const std::int64_t v = rng.uniform_int(positive ? 1 : 0, hi);
      return !positive && rng.uniform_int(0, 1) == 1 ? -v : v;
    };
    Rational a(draw(false), draw(true));
    Rational b(draw(false), draw(true));
    if (i % 4 == 0) {
      // x/g and g/z with a wide g: products wider than int64 that reduce.
      const std::int64_t g =
          rng.uniform_int(std::int64_t{1} << 33, std::int64_t{1} << 45);
      a = Rational(draw(false), g);
      b = Rational(g, draw(true));
    }
    const Compared c = expect_ops_match_int128(a, b);
    compared.all += c.all;
    compared.wide += c.wide;
  }
  // Both paths ran: most results fit in int64, some only once reduced.
  EXPECT_GT(compared.all, 30'000);
  EXPECT_GT(compared.wide, 100);

  const std::int64_t kMax = INT64_MAX;
  const std::int64_t k31 = (std::int64_t{1} << 31) - 1;
  const std::pair<Rational, Rational> edges[] = {
      // zero, as either operand and as a result
      {Rational(0), Rational(5, 7)},
      {Rational(3, 4), Rational(3, 4)},
      {Rational(0, 9), Rational(0, 2)},
      // negative numerators and denominators
      {Rational(-3, 4), Rational(2, -9)},
      {Rational(-7, 12), Rational(-5, 18)},
      // products near 2^62: ticks at the input domain's bound
      {Rational(k31, k31 - 2), Rational(k31 - 4, k31 - 6)},
      {Rational(k31 - 1, k31), Rational(-(k31 - 3), k31 - 1)},
      {Rational(std::int64_t{1} << 31, 3), Rational(std::int64_t{1} << 31, 5)},
      // unreduced results at and just past the int64 limit
      {Rational(kMax, 3), Rational(0)},
      {Rational(kMax), Rational(1)},
      {Rational(kMax, 2), Rational(1, 2)},
      {Rational(1, kMax), Rational(1)},
      {Rational(-kMax), Rational(1)},
      {Rational(-kMax), Rational(-1)},
      {Rational(kMax - 1, kMax), Rational(kMax, kMax - 1)},
  };
  for (const auto& [a, b] : edges) {
    EXPECT_GT(expect_ops_match_int128(a, b).all, 0) << a << " and " << b;
  }
  // INT64_MIN itself as an unreduced numerator: left to the int128 path.
  EXPECT_EQ((Rational(-kMax) - Rational(1)).num(), INT64_MIN);
  EXPECT_EQ((Rational(-kMax) - Rational(1)).den(), 1);
}

// A result that does not fit in int64 even reduced trips narrow_i128's
// precondition, on either path's side of the int64 limit.
TEST(RationalDeathTest, ResultsPastInt64TripNarrowI128) {
  const std::int64_t kMax = INT64_MAX;
  EXPECT_DEATH((void)(Rational(kMax) + Rational(1)), "Precondition violated");
  EXPECT_DEATH((void)(Rational(kMax) * Rational(2)), "Precondition violated");
  EXPECT_DEATH((void)(Rational(1, kMax) * Rational(1, 3)),
               "Precondition violated");
}

TEST(Rational, StreamsHumanReadably) {
  std::ostringstream os;
  os << Rational(3, 7) << " " << Rational(5);
  EXPECT_EQ(os.str(), "3/7 5");
}

TEST(Rational, MinMaxHelpers) {
  EXPECT_EQ(rmin(Rational(1, 3), Rational(1, 2)), Rational(1, 3));
  EXPECT_EQ(rmax(Rational(1, 3), Rational(1, 2)), Rational(1, 2));
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i - 3.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(WilsonInterval, BracketsTheProportion) {
  const auto iv = wilson_interval(80, 100);
  EXPECT_LT(iv.lo, 0.8);
  EXPECT_GT(iv.hi, 0.8);
  EXPECT_GT(iv.lo, 0.70);
  EXPECT_LT(iv.hi, 0.88);
}

TEST(WilsonInterval, DegenerateCases) {
  const auto empty = wilson_interval(0, 0);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 1.0);
  const auto zero = wilson_interval(0, 50);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto one = wilson_interval(50, 50);
  EXPECT_EQ(one.hi, 1.0);
  EXPECT_LT(one.lo, 1.0);
}

}  // namespace
}  // namespace reconf::math
