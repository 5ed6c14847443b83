#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "placement/column_map.hpp"
#include "sim/config.hpp"
#include "sim/invariants.hpp"
#include "sim/observer.hpp"
#include "sim/trace.hpp"
#include "task/job.hpp"
#include "task/taskset.hpp"

namespace reconf::sim {

/// A released job and its dispatch state. The simulator dispatches these
/// records as they are; the online runtime derives its record from this one
/// and adds its port and fault fields.
struct ActiveJob {
  Job job;
  Ticks reconfig_remaining = 0;  ///< stall left before execution proceeds
  placement::Interval columns{};
  bool has_columns = false;
  bool running = false;
  bool was_running = false;  ///< ran through the previous interval
};

/// Plain EDF priority (Definitions 1-2).
struct EdfOrder {
  bool operator()(const Job& a, const Job& b) const noexcept {
    return edf_before(a, b);
  }
};

/// What one unrestricted-migration placement pass did.
struct MigrationPass {
  Area occupied = 0;              ///< Σ areas of the running set
  std::uint64_t relocations = 0;  ///< placed jobs whose columns moved
};

/// The active jobs of one EDF dispatcher, kept in priority order as they
/// are released, and the steps of the event loop the simulator
/// (sim::simulate) and the online runtime (rt::run_scenario) share: the
/// ordered insert, the unrestricted-migration placement pass, the
/// completion and deadline part of the next event, the stall-then-execute
/// advance, and the snapshot handed to observers. Releases, misses and
/// completions stay with each engine, whose accounting differs.
///
/// `Record` is ActiveJob or a type derived from it; the placement hook is a
/// template argument too, so a dispatch makes no indirect call.
template <class Record = ActiveJob>
class JobTable {
  static_assert(std::is_base_of_v<ActiveJob, Record>);

 public:
  [[nodiscard]] std::vector<Record>& active() noexcept { return active_; }
  [[nodiscard]] const std::vector<Record>& active() const noexcept {
    return active_;
  }

  /// Queues a released job at its place in priority order; `less` compares
  /// jobs and must be the one order every insert into this table uses. The
  /// queue is thus always in priority order and a dispatch sorts nothing,
  /// as the FreeRTOS EDF port keeps its ready list. Erasing keeps the
  /// order, and a queued job's priority never changes (EdfOrder and EDF-US
  /// read only its deadline, release, task and sequence; both are total).
  template <class Less = EdfOrder>
  void insert(const Record& record, Less less = {}) {
    active_.insert(std::upper_bound(active_.begin(), active_.end(), record,
                                    [&less](const Record& a, const Record& b) {
                                      return less(a.job, b.job);
                                    }),
                   record);
  }

  /// Chooses the running set in queue order under unrestricted migration
  /// (the paper's model): a job runs iff its area fits in what the jobs
  /// ahead of it left free. EDF-NF skips a job that does not fit and goes
  /// on; EDF-FkF stops at it, so only the maximal prefix runs. Running jobs
  /// are compacted left in queue order (free defragmentation).
  ///
  /// `on_enter(record)` is called for each job entering the running set,
  /// before its columns are updated, to charge its placement. It returns
  /// false to withdraw the job: the job is erased and the pass goes on as
  /// if it had never been queued.
  template <class OnEnter>
  MigrationPass place_migration(Area width, SchedulerKind scheduler,
                                OnEnter&& on_enter) {
    const bool fkf = scheduler == SchedulerKind::kEdfFkF;
    MigrationPass pass;
    for (std::size_t i = 0; i < active_.size();) {
      Record& a = active_[i];
      if (pass.occupied + a.job.area > width) {
        if (fkf) {
          for (; i < active_.size(); ++i) active_[i].running = false;
          break;
        }
        a.running = false;
        ++i;
        continue;
      }
      if (!a.running && !on_enter(a)) {
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const placement::Interval iv{pass.occupied,
                                   pass.occupied + a.job.area};
      if (a.has_columns && !(a.columns == iv)) ++pass.relocations;
      a.columns = iv;
      a.has_columns = true;
      a.running = true;
      pass.occupied += a.job.area;
      ++i;
    }
    return pass;
  }

  /// Jobs that ran through the previous interval and lost this dispatch
  /// unfinished.
  [[nodiscard]] std::uint64_t count_preemptions() const {
    std::uint64_t n = 0;
    for (const Record& a : active_) {
      if (a.was_running && !a.running && !a.job.finished()) ++n;
    }
    return n;
  }

  /// Folds the earliest completion of a running job and the earliest
  /// unexpired deadline into `next`. Both lie strictly after `now`.
  [[nodiscard]] Ticks next_event_time(Ticks now, Ticks next) const {
    for (const Record& a : active_) {
      if (a.running) {
        next = std::min(next, now + a.reconfig_remaining + a.job.remaining);
      }
      if (!a.job.finished() && a.job.abs_deadline > now) {
        next = std::min(next, a.job.abs_deadline);
      }
    }
    return next;
  }

  /// Runs the running set over [now, next): each job first sits out its
  /// reconfiguration stall, then executes. Segments go to `trace` when it
  /// is not null. Returns the occupied area-time (ticks·columns).
  std::int64_t advance(Ticks now, Ticks next, Trace* trace) {
    const Ticks dt = next - now;
    Area occupied = 0;
    for (Record& a : active_) {
      if (!a.running) continue;
      occupied += a.job.area;
      Ticks t = now;
      Ticks left = dt;
      const Ticks stall = std::min(left, a.reconfig_remaining);
      if (stall > 0) {
        a.reconfig_remaining -= stall;
        record(trace, a, t, t + stall, /*reconfiguring=*/true);
        t += stall;
        left -= stall;
      }
      const Ticks exec = std::min(left, a.job.remaining);
      if (exec > 0) {
        a.job.remaining -= exec;
        record(trace, a, t, t + exec, /*reconfiguring=*/false);
      }
    }
    return static_cast<std::int64_t>(occupied) *
           static_cast<std::int64_t>(dt);
  }

  /// Hands this dispatch's snapshot to `observer` and `checker`; either may
  /// be null.
  void notify(Ticks now, Area occupied, const TaskSet& ts, Device device,
              DispatchObserver* observer, InvariantChecker* checker) {
    if (observer == nullptr && checker == nullptr) return;
    snapshot_jobs_.clear();
    snapshot_running_.clear();
    for (const Record& a : active_) {
      snapshot_jobs_.push_back(a.job);
      snapshot_running_.push_back(a.running ? 1 : 0);
    }
    const DispatchSnapshot snap{now, snapshot_jobs_, snapshot_running_,
                                occupied};
    if (observer != nullptr) observer->on_dispatch(snap, ts, device);
    if (checker != nullptr) checker->on_dispatch(snap, ts, device);
  }

 private:
  static void record(Trace* trace, const Record& a, Ticks begin, Ticks end,
                     bool reconfiguring) {
    if (trace == nullptr) return;
    trace->add(TraceSegment{a.job.task_index, a.job.sequence, begin, end,
                            a.columns.lo, a.columns.hi, reconfiguring});
  }

  std::vector<Record> active_;
  std::vector<Job> snapshot_jobs_;
  std::vector<std::uint8_t> snapshot_running_;
};

}  // namespace reconf::sim
