#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "math/bigrational.hpp"
#include "math/rational.hpp"
#include "task/task.hpp"

namespace reconf {

/// An immutable collection of tasks with the aggregate quantities the
/// analysis needs (Section 2 of the paper), computed once at construction:
///   U_T(Γ) = Σ C_i/T_i        (time utilization)
///   U_S(Γ) = Σ A_i·C_i/T_i    (system utilization)
///   A_max, A_min              (largest / smallest task area)
class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<Task> tasks);

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }
  [[nodiscard]] const Task& operator[](std::size_t i) const {
    RECONF_EXPECTS(i < tasks_.size());
    return tasks_[i];
  }
  [[nodiscard]] std::span<const Task> tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] auto begin() const noexcept { return tasks_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tasks_.end(); }

  /// U_T(Γ) as double.
  [[nodiscard]] double time_utilization() const noexcept { return ut_; }
  /// U_S(Γ) as double.
  [[nodiscard]] double system_utilization() const noexcept { return us_; }
  /// U_T(Γ) exactly (BigRational: the common denominator of many periods
  /// overflows int64 for large tasksets).
  [[nodiscard]] math::BigRational time_utilization_exact() const;
  /// U_S(Γ) exactly.
  [[nodiscard]] math::BigRational system_utilization_exact() const;

  [[nodiscard]] Area max_area() const noexcept { return max_area_; }
  [[nodiscard]] Area min_area() const noexcept { return min_area_; }
  /// Σ A_i, in int64: n areas can sum past int32 even inside the input
  /// domain.
  [[nodiscard]] std::int64_t total_area() const noexcept {
    return total_area_;
  }
  [[nodiscard]] Ticks max_period() const noexcept { return max_period_; }
  [[nodiscard]] Ticks max_deadline() const noexcept { return max_deadline_; }

  [[nodiscard]] bool all_implicit_deadline() const noexcept {
    return all_implicit_;
  }
  [[nodiscard]] bool all_constrained_deadline() const noexcept {
    return all_constrained_;
  }
  [[nodiscard]] bool all_well_formed() const noexcept { return well_formed_; }

  /// LCM of all periods; nullopt when it overflows int64.
  [[nodiscard]] std::optional<Ticks> hyperperiod() const;

  /// Returns a copy with every area replaced by `area` (the multiprocessor
  /// specialization uses area 1 everywhere).
  [[nodiscard]] TaskSet with_uniform_area(Area area) const;

  /// Returns a copy with every WCET inflated by `extra(task)` ticks —
  /// the paper's suggested treatment of reconfiguration overhead ("adding it
  /// to the execution time", Section 1). See analysis/overhead.hpp.
  [[nodiscard]] TaskSet with_wcet_increased(
      const std::vector<Ticks>& extra) const;

 private:
  std::vector<Task> tasks_;
  double ut_ = 0.0;
  double us_ = 0.0;
  Area max_area_ = 0;
  Area min_area_ = 0;
  std::int64_t total_area_ = 0;
  Ticks max_period_ = 0;
  Ticks max_deadline_ = 0;
  bool all_implicit_ = true;
  bool all_constrained_ = true;
  bool well_formed_ = true;
};

/// Feasibility prerequisites every test checks first: tasks well-formed,
/// C_k <= D_k, C_k <= T_k and A_k <= A(H). A violation means no scheduler
/// can meet all deadlines, so every sufficient test must reject.
struct FeasibilityIssue {
  std::size_t task_index = 0;
  std::string reason;
};

[[nodiscard]] std::optional<FeasibilityIssue> basic_feasibility_issue(
    const TaskSet& ts, Device device);

/// The per-task half of basic_feasibility_issue: why a task (C, D, T, A)
/// fails those prerequisites on `device`, or nullptr. Shared with the
/// analysis kernels' SoA mirror so both name the same reason; inline, as
/// it runs once per task on every kernel verdict.
[[nodiscard]] inline const char* task_infeasibility(Ticks c, Ticks d,
                                                    Ticks t, Area a,
                                                    Device device) noexcept {
  if (!device.valid()) return "device width must be > 0";
  if (c <= 0 || d <= 0 || t <= 0 || a <= 0) {
    return "task parameters must be positive";
  }
  if (c > d) return "C > D: job can never meet its deadline";
  if (c > t) return "C > T: task over-utilizes even alone";
  if (a > device.width) return "A > A(H): task does not fit on the device";
  return nullptr;
}

}  // namespace reconf
