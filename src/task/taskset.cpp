#include "task/taskset.hpp"

#include <algorithm>
#include <utility>

#include "math/gcd_lcm.hpp"

namespace reconf {

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  for (std::size_t i = 0; i < tasks_.size(); ++i) fold(i);
}

void TaskSet::append(const Task& t) {
  tasks_.push_back(t);
  fold(tasks_.size() - 1);
}

void TaskSet::fold(std::size_t i) noexcept {
  const Task& t = tasks_[i];
  if (i == 0) {
    max_area_ = t.area;
    min_area_ = t.area;
  }
  well_formed_ = well_formed_ && t.well_formed();
  if (!t.well_formed()) return;
  ut_ += t.time_utilization();
  us_ += t.system_utilization();
  max_area_ = std::max(max_area_, t.area);
  min_area_ = std::min(min_area_, t.area);
  total_area_ += t.area;
  max_period_ = std::max(max_period_, t.period);
  max_deadline_ = std::max(max_deadline_, t.deadline);
  all_implicit_ = all_implicit_ && t.implicit_deadline();
  all_constrained_ = all_constrained_ && t.constrained_deadline();
}

math::BigRational TaskSet::time_utilization_exact() const {
  math::BigRational sum(0);
  for (const Task& t : tasks_) {
    sum += math::BigRational(t.wcet, t.period);
  }
  return sum;
}

math::BigRational TaskSet::system_utilization_exact() const {
  math::BigRational sum(0);
  for (const Task& t : tasks_) {
    sum += math::BigRational(t.wcet * t.area, t.period);
  }
  return sum;
}

std::optional<Ticks> TaskSet::hyperperiod() const {
  std::vector<std::int64_t> periods;
  periods.reserve(tasks_.size());
  for (const Task& t : tasks_) periods.push_back(t.period);
  return math::lcm_all(periods);
}

TaskSet TaskSet::with_uniform_area(Area area) const {
  RECONF_EXPECTS(area > 0);
  std::vector<Task> copy(tasks_.begin(), tasks_.end());
  for (Task& t : copy) t.area = area;
  return TaskSet(std::move(copy));
}

TaskSet TaskSet::with_wcet_increased(const std::vector<Ticks>& extra) const {
  RECONF_EXPECTS(extra.size() == tasks_.size());
  std::vector<Task> copy(tasks_.begin(), tasks_.end());
  for (std::size_t i = 0; i < copy.size(); ++i) {
    RECONF_EXPECTS(extra[i] >= 0);
    copy[i].wcet += extra[i];
  }
  return TaskSet(std::move(copy));
}

std::optional<FeasibilityIssue> basic_feasibility_issue(const TaskSet& ts,
                                                        Device device) {
  if (!device.valid()) return FeasibilityIssue{0, "device width must be > 0"};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Task& t = ts[i];
    if (const char* why = task_infeasibility(t.wcet, t.deadline, t.period,
                                             t.area, device)) {
      return FeasibilityIssue{i, why};
    }
  }
  return std::nullopt;
}

}  // namespace reconf
