#pragma once

#include <compare>
#include <cstdint>
#include <numeric>
#include <ostream>

#include "common/contracts.hpp"
#include "math/checked.hpp"

namespace reconf::math {

/// Exact rational number over int64 with 128-bit intermediates.
///
/// Invariants: denominator > 0; gcd(|num|, den) == 1; zero is 0/1.
/// Arithmetic asserts (via contracts) if a reduced result would overflow
/// int64 — callers needing unbounded growth use BigRational instead. In this
/// library Rational carries small quantities: utilizations C/T, deadlines
/// ratios and lambda candidates, whose reduced terms stay tiny.
///
/// Each operation forms its unreduced result in int128. When that result
/// fits in int64 (nearly always, inside the input domain) it is reduced
/// with an int64 gcd; only a wider one pays the int128 Euclid loop. Both
/// give the same numerator and denominator.
class Rational {
 public:
  constexpr Rational() = default;

  /// Constructs num/den (den != 0) and normalizes.
  Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
    RECONF_EXPECTS(den != 0);
    normalize();
  }

  /// Implicit from integer keeps expressions like `r < 1` readable.
  constexpr Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT

  [[nodiscard]] constexpr std::int64_t num() const noexcept { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const noexcept { return den_; }

  [[nodiscard]] constexpr bool is_zero() const noexcept { return num_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const noexcept {
    return num_ < 0;
  }

  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  friend Rational operator+(const Rational& a, const Rational& b) {
    const Int128 n = Int128{a.num_} * b.den_ + Int128{b.num_} * a.den_;
    const Int128 d = Int128{a.den_} * b.den_;
    return from_i128(n, d);
  }

  friend Rational operator-(const Rational& a, const Rational& b) {
    const Int128 n = Int128{a.num_} * b.den_ - Int128{b.num_} * a.den_;
    const Int128 d = Int128{a.den_} * b.den_;
    return from_i128(n, d);
  }

  friend Rational operator*(const Rational& a, const Rational& b) {
    return from_i128(Int128{a.num_} * b.num_, Int128{a.den_} * b.den_);
  }

  friend Rational operator/(const Rational& a, const Rational& b) {
    RECONF_EXPECTS(!b.is_zero());
    return from_i128(Int128{a.num_} * b.den_, Int128{a.den_} * b.num_);
  }

  Rational operator-() const {
    Rational r = *this;
    r.num_ = -r.num_;
    return r;
  }

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  friend constexpr bool operator==(const Rational& a,
                                   const Rational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;  // both normalized
  }

  friend constexpr std::strong_ordering operator<=>(
      const Rational& a, const Rational& b) noexcept {
    const Int128 lhs = Int128{a.num_} * b.den_;
    const Int128 rhs = Int128{b.num_} * a.den_;
    if (lhs < rhs) return std::strong_ordering::less;
    if (lhs > rhs) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

  friend std::ostream& operator<<(std::ostream& os, const Rational& r) {
    os << r.num_;
    if (r.den_ != 1) os << '/' << r.den_;
    return os;
  }

 private:
  static Rational from_i128(Int128 n, Int128 d) {
    RECONF_ASSERT(d != 0);
    if (d < 0) {
      n = -n;
      d = -d;
    }
    // INT64_MIN is left to the wide path: normalize() negates the numerator.
    if (n > Int128{INT64_MIN} && n <= Int128{INT64_MAX} &&
        d <= Int128{INT64_MAX}) {
      Rational r;
      r.num_ = static_cast<std::int64_t>(n);
      r.den_ = static_cast<std::int64_t>(d);
      r.normalize();
      return r;
    }
    const Int128 g = gcd_i128(n < 0 ? -n : n, d);
    if (g > 1) {
      n /= g;
      d /= g;
    }
    Rational r;
    r.num_ = narrow_i128(n);
    r.den_ = narrow_i128(d);
    return r;
  }

  static Int128 gcd_i128(Int128 a, Int128 b) {
    while (b != 0) {
      const Int128 t = a % b;
      a = b;
      b = t;
    }
    return a == 0 ? 1 : a;
  }

  void normalize() {
    if (den_ < 0) {
      num_ = -num_;
      den_ = -den_;
    }
    const std::int64_t g =
        std::gcd(num_ < 0 ? -num_ : num_, den_);
    if (g > 1) {
      num_ /= g;
      den_ /= g;
    }
    if (num_ == 0) den_ = 1;
  }

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

/// min/max helpers (std::min takes by reference; value semantics read better
/// in the analysis formulas).
[[nodiscard]] inline Rational rmin(const Rational& a, const Rational& b) {
  return a < b ? a : b;
}
[[nodiscard]] inline Rational rmax(const Rational& a, const Rational& b) {
  return a < b ? b : a;
}

}  // namespace reconf::math
