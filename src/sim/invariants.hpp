#pragma once

#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/observer.hpp"
#include "task/job.hpp"

namespace reconf::sim {

/// Standalone observer that validates, at every dispatch, the structural
/// properties the paper's analysis rests on:
///
///  * the area cap Σ A_i(running) ≤ A(H);
///  * EDF priority order — the dispatch queue must be sorted by
///    edf_before (EDF-NF and EDF-FkF; EDF-US reorders by heaviness and is
///    exempt);
///  * no expired jobs — every unfinished active job's absolute deadline
///    lies strictly in the future (misses must be detected *before* the
///    dispatch, never scheduled through);
///  * EDF-FkF's prefix property (Definition 1), and that the blocking head
///    genuinely does not fit: occupied + A(head) > A(H) (unrestricted
///    migration only — fragmentation legitimately blocks smaller heads in
///    placement-constrained mode);
///  * Lemma 1 — EDF-FkF is global-α-work-conserving with
///    α = 1 − (A_max − 1)/A(H): whenever jobs wait, occupied area is at
///    least A(H) − (A_max − 1);
///  * Lemma 2 — EDF-NF is interval-α-work-conserving: while a job J_k with
///    area A_k waits, occupied area is at least A(H) − (A_k − 1) — the
///    exact greedy condition: a waiting job must not fit in the free area.
///
/// The lemma and fit checks apply only in the paper's unrestricted-migration
/// model; in placement-constrained mode fragmentation legitimately breaks
/// them, so only the cap, order, expiry and prefix checks run there.
///
/// Same checks as SimConfig::check_invariants, exposed as an observer so
/// property tests can attach it selectively and inspect violations.
class InvariantChecker final : public DispatchObserver {
 public:
  InvariantChecker(SchedulerKind scheduler, PlacementMode placement)
      : scheduler_(scheduler), placement_(placement) {}

  /// Checks one dispatch snapshot; reads A_max from `ts`.
  void on_dispatch(const DispatchSnapshot& snapshot, const TaskSet& ts,
                   Device device) override;

  /// The checks themselves, over any view of the dispatch queue:
  /// `jobs.size()`, `jobs.job(i)` (the i-th Job in queue order) and
  /// `jobs.running(i)`. on_dispatch reads a snapshot through it, and
  /// sim::JobTable::check reads its records in place, so a checked dispatch
  /// copies nothing. `occupied` is the dispatcher's Σ of running areas and
  /// `max_area` A_max of the task table (Lemma 1's α).
  template <class Jobs>
  void check(Ticks now, const Jobs& jobs, Area occupied, Area max_area,
             Device device);

  /// Graceful-degradation contract (the rt layer's shed path): a shed task's
  /// jobs must never appear in a later dispatch — its fabric share really is
  /// released to the survivors.
  void mark_shed(std::size_t task_index, Ticks at);

  /// Arms the "never misses" guarantee for `task_index`: after a shed
  /// re-validates the surviving set through the admission gate, a protected
  /// task reporting a deadline miss is an invariant violation, not a
  /// statistic. The rt layer arms this only in the zero-reconfiguration-cost
  /// regime, where the analysis guarantee is exact.
  void protect(std::size_t task_index);

  /// The runtime reports every adjudicated deadline miss here; a miss on a
  /// protected task is a violation.
  void on_deadline_miss(Ticks now, std::size_t task_index);

  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool clean() const noexcept { return violations_.empty(); }
  [[nodiscard]] std::uint64_t dispatches_seen() const noexcept {
    return dispatches_;
  }

 private:
  void violate(Ticks now, const std::string& what);

  SchedulerKind scheduler_;
  PlacementMode placement_;
  std::vector<std::string> violations_;
  std::uint64_t dispatches_ = 0;
  /// Indexed by task_index; the task table is append-only so indexes are
  /// stable. Sized lazily on first use.
  std::vector<bool> shed_;
  std::vector<bool> protected_;
};

template <class Jobs>
void InvariantChecker::check(Ticks now, const Jobs& jobs, Area occupied,
                             Area max_area, Device device) {
  ++dispatches_;
  const std::size_t n = jobs.size();

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t task = jobs.job(i).task_index;
    if (task < shed_.size() && shed_[task]) {
      violate(now, "job of shed task " + std::to_string(task) +
                       " still in the dispatch queue");
      break;
    }
  }

  Area running_area = 0;
  bool any_waiting = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (jobs.running(i)) {
      running_area += jobs.job(i).area;
    } else {
      any_waiting = true;
    }
  }

  if (running_area != occupied) {
    violate(now, "snapshot occupied area is inconsistent");
  }
  if (running_area > device.width) {
    violate(now, "occupied area exceeds A(H)");
  }

  // Expired jobs must have been adjudicated as misses before this dispatch.
  for (std::size_t i = 0; i < n; ++i) {
    if (jobs.job(i).remaining > 0 && jobs.job(i).abs_deadline <= now) {
      violate(now, "unfinished job scheduled past its deadline");
      break;
    }
  }

  // The queue must be in exact EDF priority order (EDF-US reorders by the
  // heaviness class the snapshot does not carry, so it is exempt).
  if (scheduler_ == SchedulerKind::kEdfNf ||
      scheduler_ == SchedulerKind::kEdfFkF) {
    for (std::size_t i = 1; i < n; ++i) {
      if (edf_before(jobs.job(i), jobs.job(i - 1))) {
        violate(now, "dispatch queue is not in EDF order");
        break;
      }
    }
  }

  if (scheduler_ == SchedulerKind::kEdfFkF) {
    bool seen_waiting = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!jobs.running(i)) {
        seen_waiting = true;
      } else if (seen_waiting) {
        violate(now, "EDF-FkF prefix property violated");
        break;
      }
    }
  }

  if (placement_ != PlacementMode::kUnrestrictedMigration) return;

  // EDF-FkF blocks on its queue head: the first waiting job must genuinely
  // not fit, or the scheduler idled capacity it was supposed to use.
  if (scheduler_ == SchedulerKind::kEdfFkF) {
    for (std::size_t i = 0; i < n; ++i) {
      if (jobs.running(i)) continue;
      const Area area = jobs.job(i).area;
      if (running_area + area <= device.width) {
        violate(now,
                "EDF-FkF blocked although its queue head fits (occupied " +
                    std::to_string(running_area) + " + " +
                    std::to_string(area) + " <= " +
                    std::to_string(device.width) + ")");
      }
      break;  // only the head of the waiting suffix blocks
    }
  }

  if (scheduler_ == SchedulerKind::kEdfFkF && any_waiting) {
    const Area bound = device.width - (max_area - 1);
    if (running_area < bound) {
      violate(now, "Lemma 1 global-alpha bound violated (occupied " +
                       std::to_string(running_area) + " < " +
                       std::to_string(bound) + ")");
    }
  }

  if (scheduler_ == SchedulerKind::kEdfNf) {
    for (std::size_t i = 0; i < n; ++i) {
      if (jobs.running(i)) continue;
      const Area bound = device.width - (jobs.job(i).area - 1);
      if (running_area < bound) {
        violate(now, "Lemma 2 interval-alpha bound violated (occupied " +
                         std::to_string(running_area) + " < " +
                         std::to_string(bound) + ")");
        break;
      }
    }
  }
}

}  // namespace reconf::sim
