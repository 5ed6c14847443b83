#pragma once

#include <string>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "math/rational.hpp"

namespace reconf {

/// A periodic or sporadic hardware task τ = (C, D, T, A):
///   wcet     C — worst-case execution time (ticks)
///   deadline D — relative deadline (ticks)
///   period   T — period / minimum inter-arrival time (ticks)
///   area     A — contiguous columns occupied on the 1D device
///
/// Matches Section 2 of the paper exactly; the paper's real-valued C/D/T are
/// mapped to integer ticks (default 100 ticks per paper unit, making all the
/// paper's two-decimal values exact).
struct Task {
  Ticks wcet = 0;
  Ticks deadline = 0;
  Ticks period = 0;
  Area area = 0;
  std::string name;

  /// C/T as double (the paper's time utilization of one task).
  [[nodiscard]] double time_utilization() const {
    RECONF_EXPECTS(period > 0);
    return static_cast<double>(wcet) / static_cast<double>(period);
  }

  /// C/T exactly.
  [[nodiscard]] math::Rational time_utilization_exact() const {
    RECONF_EXPECTS(period > 0);
    return {wcet, period};
  }

  /// A*C/T as double (the paper's system utilization of one task).
  [[nodiscard]] double system_utilization() const {
    return time_utilization() * static_cast<double>(area);
  }

  /// C/D (density); equals time utilization for implicit deadlines.
  [[nodiscard]] double density() const {
    RECONF_EXPECTS(deadline > 0);
    return static_cast<double>(wcet) / static_cast<double>(deadline);
  }

  [[nodiscard]] bool implicit_deadline() const noexcept {
    return deadline == period;
  }
  [[nodiscard]] bool constrained_deadline() const noexcept {
    return deadline <= period;
  }

  /// Structural sanity: positive parameters. (Feasibility checks such as
  /// C <= D or A <= A(H) live in `validate_for_device`.)
  [[nodiscard]] bool well_formed() const noexcept {
    return wcet > 0 && deadline > 0 && period > 0 && area > 0;
  }
};

/// The input domain. Every ingest path — io::make_task_checked (the v1 text
/// format, oracle repros), the NDJSON codec's "tasks" and "device", the
/// runtime's scenario and fault-plan parsers and
/// svc::AdmissionSession::try_admit — refuses a task, device or tick value
/// outside it with an error that names the bound:
///
///  * C, D, T ≤ kMaxTicks (below 2^31): the product of any two tick values
///    fits in int64, so every int64 product the analyses form (A·C, N_i·T_i)
///    and every math::Rational they build (C/T, λ·T_k/D_k) stays exact.
///  * A ≤ A(H) ≤ kMaxWidth (below 2^29): the simulator and the runtime sum
///    column counts in int32 — at most three counts of up to A(H) at once,
///    in the runtime's residency bookkeeping — so no such sum overflows.
inline constexpr Ticks kMaxTicks = (Ticks{1} << 31) - 1;
inline constexpr Area kMaxWidth = (Area{1} << 29) - 1;

/// Why positive task parameters (C, D, T, A) lie outside the input domain,
/// naming the bound, or nullptr.
[[nodiscard]] constexpr const char* task_domain_error(long long c, long long d,
                                                      long long t,
                                                      long long a) noexcept {
  static_assert(kMaxTicks == 2147483647 && kMaxWidth == 536870911);
  if (c > kMaxTicks || d > kMaxTicks || t > kMaxTicks) {
    return "C, D or T out of range (max 2147483647)";
  }
  if (a > kMaxWidth) return "area out of range (max 536870911)";
  return nullptr;
}

/// Why a positive device width lies outside the input domain, naming the
/// bound, or nullptr.
[[nodiscard]] constexpr const char* width_domain_error(
    long long width) noexcept {
  return width > kMaxWidth ? "device width out of range (max 536870911)"
                           : nullptr;
}

/// Convenience factory from paper units: make_task(1.26, 7, 7, 9).
[[nodiscard]] inline Task make_task(double wcet_units, double deadline_units,
                                    double period_units, Area area,
                                    std::string name = {},
                                    Ticks scale = kTicksPerUnit) {
  Task t;
  t.wcet = ticks_from_units(wcet_units, scale);
  t.deadline = ticks_from_units(deadline_units, scale);
  t.period = ticks_from_units(period_units, scale);
  t.area = area;
  t.name = std::move(name);
  RECONF_ENSURES(t.well_formed());
  return t;
}

}  // namespace reconf
