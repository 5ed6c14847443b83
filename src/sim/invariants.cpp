#include "sim/invariants.hpp"

namespace reconf::sim {

void InvariantChecker::violate(Ticks now, const std::string& what) {
  if (violations_.size() < 64) {
    violations_.push_back("t=" + std::to_string(now) + ": " + what);
  }
}

void InvariantChecker::mark_shed(std::size_t task_index, Ticks at) {
  if (shed_.size() <= task_index) shed_.resize(task_index + 1, false);
  shed_[task_index] = true;
  (void)at;
}

void InvariantChecker::protect(std::size_t task_index) {
  if (protected_.size() <= task_index) {
    protected_.resize(task_index + 1, false);
  }
  protected_[task_index] = true;
}

void InvariantChecker::on_deadline_miss(Ticks now, std::size_t task_index) {
  if (task_index < protected_.size() && protected_[task_index]) {
    violate(now, "protected task " + std::to_string(task_index) +
                     " missed a deadline after shed re-validation");
  }
}

void InvariantChecker::on_dispatch(const DispatchSnapshot& snap,
                                   const TaskSet& ts, Device device) {
  struct SnapshotJobs {
    const DispatchSnapshot& snap;
    [[nodiscard]] std::size_t size() const { return snap.active.size(); }
    [[nodiscard]] const Job& job(std::size_t i) const {
      return snap.active[i];
    }
    [[nodiscard]] bool running(std::size_t i) const {
      return snap.running[i] != 0;
    }
  };
  check(snap.now, SnapshotJobs{snap}, snap.occupied, ts.max_area(), device);
}

}  // namespace reconf::sim
