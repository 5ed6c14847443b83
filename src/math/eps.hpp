#pragma once

namespace reconf::math {

/// The floating-point comparisons of the schedulability bounds (the
/// analysis kernels, mp/): tolerance-aware so IEEE rounding cannot flip a
/// verdict on the knife-edge equalities the paper's Table 1 sits on.
/// `lt(a,b)` is the strict comparison used where a theorem demands `<`,
/// `le(a,b)` the non-strict `<=`. The *_test_exact evaluators compare
/// exactly instead.
inline constexpr double kEps = 1e-9;

[[nodiscard]] constexpr bool lt(double a, double b) { return a < b - kEps; }
[[nodiscard]] constexpr bool le(double a, double b) { return a <= b + kEps; }

}  // namespace reconf::math
