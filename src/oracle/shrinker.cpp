#include "oracle/shrinker.hpp"

#include <numeric>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace reconf::oracle {

namespace {

/// Removal + bisection sweeps before declaring a fixpoint.
constexpr int kRounds = 6;
/// Hard cap on predicate evaluations (each can cost a simulation).
constexpr std::uint64_t kEvalBudget = 50000;

/// Mutable working copy plus the bookkeeping shared by all shrink passes.
class Shrinker {
 public:
  Shrinker(const TaskSet& ts, Device device, const ShrinkPredicate& pred)
      : tasks_(ts.tasks().begin(), ts.tasks().end()),
        device_(device),
        pred_(pred) {}

  ShrinkOutcome run() {
    if (!check(tasks_, device_)) {
      // Not a witness (or flaky): hand it back untouched.
      return {TaskSet{std::move(tasks_)}, device_, evals_, false};
    }
    for (int round = 0; round < kRounds && !budget_spent(); ++round) {
      bool changed = false;
      changed |= remove_tasks();
      changed |= remove_task_pairs();
      changed |= remove_tasks_with_device();
      changed |= bisect_fields();
      changed |= bisect_device();
      changed |= rescale_time();
      if (!changed) break;
    }
    return {TaskSet{std::move(tasks_)}, device_, evals_, budget_spent()};
  }

 private:
  [[nodiscard]] bool budget_spent() const {
    return evals_ >= kEvalBudget;
  }

  bool check(const std::vector<Task>& tasks, Device device) {
    if (budget_spent()) return false;
    ++evals_;
    return pred_(TaskSet{tasks}, device);
  }

  /// Greedy removal, last task first (later tasks are usually the freshest
  /// additions of a generated set and the least load-bearing).
  bool remove_tasks() {
    bool changed = false;
    for (std::size_t i = tasks_.size(); i-- > 0 && tasks_.size() > 1;) {
      std::vector<Task> candidate = tasks_;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (check(candidate, device_)) {
        tasks_ = std::move(candidate);
        changed = true;
      }
      if (budget_spent()) break;
    }
    return changed;
  }

  /// Pair removal unsticks witnesses whose predicate is pinned by a
  /// count-coupled property (a size-parity fast/slow bug, matched task
  /// duos): dropping any single task breaks reproduction, dropping two can
  /// keep it. O(n²) candidates per pass, restarted greedily on success.
  bool remove_task_pairs() {
    bool changed = false;
    for (std::size_t i = 0; i + 1 < tasks_.size() && tasks_.size() > 2;) {
      bool committed = false;
      for (std::size_t j = i + 1; j < tasks_.size() && !budget_spent();
           ++j) {
        std::vector<Task> candidate = tasks_;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(j));
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
        if (check(candidate, device_)) {
          tasks_ = std::move(candidate);
          committed = true;
          changed = true;
          break;
        }
      }
      if (budget_spent()) break;
      if (!committed) ++i;
    }
    return changed;
  }

  /// Compound move for witnesses pinned by capacity coupling (e.g. a
  /// multiprocessor-style overload that stops reproducing when either the
  /// task count or the width moves alone): drop one task *and* re-try the
  /// device at geometrically swept widths in the same candidate.
  bool remove_tasks_with_device() {
    bool changed = false;
    for (std::size_t i = tasks_.size(); i-- > 0 && tasks_.size() > 1;) {
      std::vector<Task> candidate = tasks_;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      bool committed = false;
      for (Area w = 1; w < device_.width && !budget_spent(); w *= 2) {
        if (check(candidate, Device{w})) {
          tasks_ = candidate;
          device_ = Device{w};
          committed = true;
          changed = true;
          break;
        }
      }
      if (committed) {
        i = tasks_.size();  // restart the sweep on the smaller witness
        continue;
      }
      if (budget_spent()) break;
    }
    return changed;
  }

  /// Smallest passing value for one field found by bisection. Commits only
  /// candidates the predicate confirms, so a non-monotone predicate costs
  /// optimality, never validity.
  bool bisect_field(std::size_t task, Ticks Task::* field) {
    const Ticks original = tasks_[task].*field;
    Ticks best = original;
    Ticks lo = 1;
    Ticks hi = original - 1;
    while (lo <= hi && !budget_spent()) {
      const Ticks mid = lo + (hi - lo) / 2;
      std::vector<Task> candidate = tasks_;
      candidate[task].*field = mid;
      if (candidate[task].well_formed() && check(candidate, device_)) {
        best = mid;
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    if (best == original) return false;
    tasks_[task].*field = best;
    return true;
  }

  bool bisect_area(std::size_t task) {
    const Area original = tasks_[task].area;
    Area best = original;
    Area lo = 1;
    Area hi = original - 1;
    while (lo <= hi && !budget_spent()) {
      const Area mid = lo + (hi - lo) / 2;
      std::vector<Task> candidate = tasks_;
      candidate[task].area = mid;
      if (check(candidate, device_)) {
        best = mid;
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    if (best == original) return false;
    tasks_[task].area = best;
    return true;
  }

  bool bisect_fields() {
    bool changed = false;
    for (std::size_t i = 0; i < tasks_.size() && !budget_spent(); ++i) {
      changed |= bisect_field(i, &Task::wcet);
      changed |= bisect_field(i, &Task::deadline);
      changed |= bisect_field(i, &Task::period);
      changed |= bisect_area(i);
    }
    return changed;
  }

  bool bisect_device() {
    const Area original = device_.width;
    Area best = original;
    Area lo = 1;
    Area hi = original - 1;
    while (lo <= hi && !budget_spent()) {
      const Area mid = lo + (hi - lo) / 2;
      if (check(tasks_, Device{mid})) {
        best = mid;
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    if (best == original) return false;
    device_ = Device{best};
    return true;
  }

  /// Divides every C/D/T by their collective gcd — pure time rescaling that
  /// both the analysis (rational comparisons) and the simulation (integer
  /// event arithmetic) are invariant under, verified by the predicate like
  /// every other step.
  bool rescale_time() {
    Ticks g = 0;
    for (const Task& t : tasks_) {
      g = std::gcd(g, t.wcet);
      g = std::gcd(g, t.deadline);
      g = std::gcd(g, t.period);
    }
    if (g <= 1) return false;
    std::vector<Task> candidate = tasks_;
    for (Task& t : candidate) {
      t.wcet /= g;
      t.deadline /= g;
      t.period /= g;
    }
    if (!check(candidate, device_)) return false;
    tasks_ = std::move(candidate);
    return true;
  }

  std::vector<Task> tasks_;
  Device device_;
  const ShrinkPredicate& pred_;
  std::uint64_t evals_ = 0;
};

}  // namespace

ShrinkOutcome shrink(const TaskSet& ts, Device device,
                     const ShrinkPredicate& still_fails) {
  RECONF_EXPECTS(!ts.empty());
  RECONF_EXPECTS(device.valid());
  return Shrinker(ts, device, still_fails).run();
}

}  // namespace reconf::oracle
