#pragma once

#include <compare>
#include <cstdint>
#include <ostream>
#include <string>

#include "math/bigint.hpp"
#include "math/rational.hpp"

namespace reconf::math {

/// Arbitrary-precision rational: the exact-arithmetic backend for the
/// schedulability tests. All quantities in Theorems 1-3 are rationals in the
/// integer task parameters, so evaluating the conditions over BigRational
/// gives tie-exact verdicts — the knife-edge equalities in the paper's
/// Table 1 (see Gn2Options in analysis/options.hpp) are decided exactly
/// rather than by float luck.
///
/// Invariants: den > 0; gcd(|num|, den) == 1; zero is 0/1.
class BigRational {
 public:
  BigRational() : num_(0), den_(1) {}
  BigRational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT
  BigRational(BigInt num, BigInt den);
  explicit BigRational(const Rational& r) : BigRational(r.num(), r.den()) {}
  BigRational(std::int64_t num, std::int64_t den)
      : BigRational(BigInt(num), BigInt(den)) {}

  [[nodiscard]] const BigInt& num() const noexcept { return num_; }
  [[nodiscard]] const BigInt& den() const noexcept { return den_; }

  [[nodiscard]] bool is_zero() const noexcept { return num_.is_zero(); }
  [[nodiscard]] bool is_negative() const noexcept {
    return num_.is_negative();
  }

  [[nodiscard]] double to_double() const noexcept;
  [[nodiscard]] std::string to_string() const;

  BigRational operator-() const;

  friend BigRational operator+(const BigRational& a, const BigRational& b);
  friend BigRational operator-(const BigRational& a, const BigRational& b);
  friend BigRational operator*(const BigRational& a, const BigRational& b);
  friend BigRational operator/(const BigRational& a, const BigRational& b);

  BigRational& operator+=(const BigRational& o) { return *this = *this + o; }
  BigRational& operator-=(const BigRational& o) { return *this = *this - o; }
  BigRational& operator*=(const BigRational& o) { return *this = *this * o; }
  BigRational& operator/=(const BigRational& o) { return *this = *this / o; }

  friend bool operator==(const BigRational& a, const BigRational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;  // both normalized
  }
  friend std::strong_ordering operator<=>(const BigRational& a,
                                          const BigRational& b) noexcept;

  friend std::ostream& operator<<(std::ostream& os, const BigRational& r) {
    return os << r.to_string();
  }

 private:
  void normalize();

  BigInt num_;
  BigInt den_;
};

[[nodiscard]] inline BigRational rmin(const BigRational& a,
                                      const BigRational& b) {
  return a < b ? a : b;
}
[[nodiscard]] inline BigRational rmax(const BigRational& a,
                                      const BigRational& b) {
  return a < b ? b : a;
}

}  // namespace reconf::math
