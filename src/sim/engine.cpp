#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "sim/invariants.hpp"
#include "sim/job_table.hpp"

namespace reconf::sim {

namespace {

/// Priority order for the configured scheduler: plain EDF, or EDF-US[ζ]
/// (heavy tasks first, then EDF).
struct PriorityLess {
  const std::vector<bool>* heavy;  // null for plain EDF

  bool operator()(const Job& a, const Job& b) const {
    if (heavy != nullptr) {
      const bool ha = (*heavy)[a.task_index];
      const bool hb = (*heavy)[b.task_index];
      if (ha != hb) return ha;  // heavy class outranks everything
    }
    return edf_before(a, b);
  }
};

class Engine {
 public:
  Engine(const TaskSet& ts, Device device, const SimConfig& config)
      : ts_(ts),
        device_(device),
        config_(config),
        map_(device.width),
        heavy_(ts.size(), false),
        priority_{config.scheduler == SchedulerKind::kEdfUs ? &heavy_
                                                            : nullptr} {
    RECONF_EXPECTS(device.valid());
    RECONF_EXPECTS(config.offsets.empty() ||
                   config.offsets.size() == ts.size());
    if (config_.scheduler == SchedulerKind::kEdfUs) {
      for (std::size_t i = 0; i < ts_.size(); ++i) {
        heavy_[i] = ts_[i].system_utilization() >
                    config_.edf_us_threshold *
                        static_cast<double>(device_.width);
      }
    }
    if (config_.check_invariants) {
      checker_ = std::make_unique<InvariantChecker>(config_.scheduler,
                                                    config_.placement);
    }
  }

  SimResult run() {
    result_.horizon = default_horizon(ts_, config_);
    if (const auto hp = ts_.hyperperiod()) {
      result_.horizon_was_hyperperiod = (*hp == result_.horizon);
    }
    if (ts_.empty()) return result_;

    next_release_.resize(ts_.size());
    sequence_.resize(ts_.size(), 0);
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      next_release_[i] = first_release(i);
      if (config_.arrivals == ArrivalModel::kSporadic) {
        arrival_rng_.emplace_back(
            derive_seed(config_.arrival_seed, static_cast<std::uint64_t>(i)));
      }
    }

    Ticks now = 0;
    const Ticks horizon = result_.horizon;
    Trace* trace = config_.record_trace ? &result_.trace : nullptr;

    for (;;) {
      if (detect_misses(now)) return result_;  // stop-on-first-miss
      if (now >= horizon) break;
      release_jobs(now);
      dispatch(now);

      Ticks next = horizon;
      for (const Ticks r : next_release_) next = std::min(next, r);
      next = jobs_.next_event_time(now, next);
      RECONF_ASSERT(next > now);
      result_.busy_area_time += jobs_.advance(now, next, trace);
      reap_completed();
      now = next;
    }
    if (checker_) result_.invariant_violations = checker_->violations();
    return result_;
  }

 private:
  [[nodiscard]] Ticks first_release(std::size_t i) const {
    return config_.offsets.empty() ? 0 : config_.offsets[i];
  }

  /// Records deadline misses at `now`; returns true when the run must stop.
  /// A task that can never meet a deadline (A > A(H) or C > D) needs no
  /// special case: its jobs miss here like any other.
  bool detect_misses(Ticks now) {
    std::vector<ActiveJob>& active = jobs_.active();
    for (std::size_t i = 0; i < active.size();) {
      const ActiveJob& a = active[i];
      if (!a.job.finished() && a.job.abs_deadline <= now) {
        ++result_.deadline_misses;
        result_.schedulable = false;
        if (!result_.first_miss) {
          result_.first_miss =
              MissInfo{a.job.task_index, a.job.sequence, a.job.abs_deadline};
        }
        if (config_.stop_on_first_miss) return true;
        // Continue mode: the late job is abandoned at its deadline. (The
        // column map is rebuilt from scratch at every dispatch, so no
        // placement cleanup is needed here.)
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
    return false;
  }

  /// Gap to the next release after the current one: exactly T_i for
  /// periodic tasks; T_i plus a seeded uniform jitter for sporadic ones
  /// (T_i is the minimum inter-arrival time, paper Section 2).
  [[nodiscard]] Ticks inter_arrival(std::size_t i) {
    const Ticks period = ts_[i].period;
    if (config_.arrivals == ArrivalModel::kPeriodic) return period;
    const double jitter = arrival_rng_[i].uniform(
        0.0, std::max(0.0, config_.sporadic_jitter));
    return period + static_cast<Ticks>(jitter * static_cast<double>(period));
  }

  void release_jobs(Ticks now) {
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      if (next_release_[i] != now) continue;
      ActiveJob a;
      a.job.task_index = i;
      a.job.sequence = sequence_[i]++;
      a.job.release = now;
      a.job.abs_deadline = now + ts_[i].deadline;
      a.job.remaining = ts_[i].wcet;
      a.job.area = ts_[i].area;
      jobs_.insert(a, priority_);
      next_release_[i] += inter_arrival(i);
      ++result_.jobs_released;
    }
  }

  /// Charges a reconfiguration (placement) of job `a`: zero-cost under the
  /// paper's assumptions unless configured otherwise.
  void charge_placement(ActiveJob& a) {
    ++result_.placements;
    a.reconfig_remaining = config_.reconf.placement_ticks(a.job.area);
  }

  /// Recomputes the running set at `now` per the configured scheduler and
  /// placement mode (paper Definitions 1-2; modes in sim/config.hpp).
  void dispatch(Ticks now) {
    ++result_.dispatches;
    Area occupied = 0;
    if (config_.placement == PlacementMode::kUnrestrictedMigration) {
      // Columns are virtual: jobs that stay running and merely move count
      // as relocations, free under the paper's migration assumption.
      const MigrationPass pass = jobs_.place_migration(
          device_.width, config_.scheduler, [this](ActiveJob& a) {
            charge_placement(a);
            return true;
          });
      result_.relocations += pass.relocations;
      occupied = pass.occupied;
    } else {
      occupied = dispatch_contiguous();
    }
    result_.preemptions += jobs_.count_preemptions();
    jobs_.notify(now, occupied, ts_, device_, config_.observer,
                 checker_.get());
  }

  /// Contiguous placement without live migration: running jobs keep their
  /// exact columns; anyone else needs a fresh contiguous gap (a new
  /// reconfiguration). See PlacementMode in sim/config.hpp. Returns the
  /// occupied area.
  Area dispatch_contiguous() {
    const bool fkf = config_.scheduler == SchedulerKind::kEdfFkF;
    std::vector<ActiveJob>& active = jobs_.active();
    map_.clear();
    for (std::size_t i = 0; i < active.size(); ++i) {
      ActiveJob& a = active[i];
      bool placed = false;
      bool relocated = false;
      const bool keep = a.running && a.has_columns && map_.is_free(a.columns);
      if (keep) {
        map_.allocate(a.columns);
        placed = true;
      } else if (const auto gap =
                     map_.find_gap(a.job.area, config_.strategy)) {
        relocated = a.has_columns && !(a.columns == *gap);
        map_.allocate(*gap);
        a.columns = *gap;
        a.has_columns = true;
        placed = true;
      }

      if (placed) {
        if (!keep) {
          if (relocated) ++result_.relocations;
          charge_placement(a);
        }
        a.running = true;
        continue;
      }

      if (map_.fits_by_area(a.job.area)) {
        ++result_.fragmentation_rejections;
      }
      a.running = false;
      if (fkf) {
        // First-k-Fit: the first unplaceable job blocks the rest of the
        // queue.
        for (; i < active.size(); ++i) active[i].running = false;
        break;
      }
    }
    // Jobs that lost the dispatch keep no columns (their configuration is
    // considered overwritten; resuming costs a fresh reconfiguration).
    for (ActiveJob& a : active) {
      if (!a.running) a.has_columns = false;
    }
    return map_.occupied_area();
  }

  void reap_completed() {
    std::vector<ActiveJob>& active = jobs_.active();
    for (std::size_t i = 0; i < active.size();) {
      ActiveJob& a = active[i];
      if (a.running && a.job.finished() && a.reconfig_remaining == 0) {
        ++result_.jobs_completed;
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      a.was_running = a.running;
      ++i;
    }
  }

  const TaskSet& ts_;
  Device device_;
  SimConfig config_;
  placement::ColumnMap map_;
  std::vector<bool> heavy_;
  PriorityLess priority_;  ///< the queue order of jobs_

  std::vector<Ticks> next_release_;
  std::vector<std::uint64_t> sequence_;
  std::vector<Xoshiro256ss> arrival_rng_;  ///< per-task sporadic streams
  JobTable<> jobs_;

  std::unique_ptr<InvariantChecker> checker_;

  SimResult result_;
};

}  // namespace

Ticks default_horizon(const TaskSet& ts, const SimConfig& config) {
  if (config.horizon > 0) return config.horizon;
  if (ts.empty()) return 1;
  const Ticks cap = static_cast<Ticks>(config.horizon_periods) *
                    std::max<Ticks>(ts.max_period(), 1);
  const auto hp = ts.hyperperiod();
  Ticks horizon = hp ? std::min(*hp, cap) : cap;
  if (!config.offsets.empty()) {
    const Ticks max_offset =
        *std::max_element(config.offsets.begin(), config.offsets.end());
    horizon += max_offset;
  }
  return std::max<Ticks>(horizon, 1);
}

SimResult simulate(const TaskSet& ts, Device device, const SimConfig& config) {
  Engine engine(ts, device, config);
  return engine.run();
}

const char* to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kEdfNf:
      return "EDF-NF";
    case SchedulerKind::kEdfFkF:
      return "EDF-FkF";
    case SchedulerKind::kEdfUs:
      return "EDF-US";
  }
  return "?";
}

const char* to_string(PlacementMode m) noexcept {
  switch (m) {
    case PlacementMode::kUnrestrictedMigration:
      return "unrestricted-migration";
    case PlacementMode::kContiguousNoMigration:
      return "contiguous-no-migration";
  }
  return "?";
}

const char* to_string(ArrivalModel m) noexcept {
  switch (m) {
    case ArrivalModel::kPeriodic:
      return "periodic";
    case ArrivalModel::kSporadic:
      return "sporadic";
  }
  return "?";
}

}  // namespace reconf::sim
