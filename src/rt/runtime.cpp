#include "rt/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "common/json_escape.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/invariants.hpp"
#include "sim/job_table.hpp"

namespace reconf::rt {

namespace {

/// The admission gate's latency histogram: a per-gate sample, so the one
/// metric the event loop writes itself.
obs::Histogram& admission_latency() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::instance().histogram(
          "reconf_rt_admission_latency_ns");
  return histogram;
}

/// Adds one finished run's ledger to the process-wide counters. The
/// RuntimeResult is where a run counts; obs only exposes the totals, so
/// the counters move once per run, never per event. Handles are resolved
/// on the first call.
void publish_counters(const RuntimeResult& r) {
  const FaultRecoveryStats& f = r.faults;
  const auto ticks = [](Ticks t) { return static_cast<std::uint64_t>(t); };
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"reconf_rt_admissions_total{verdict=\"admitted\"}", r.admitted},
      {"reconf_rt_admissions_total{verdict=\"rejected\"}", r.rejected},
      {"reconf_rt_releases_total", r.releases},
      {"reconf_rt_completions_total", r.completions},
      {"reconf_rt_deadline_misses_total", r.deadline_misses},
      {"reconf_rt_stall_ticks_total", ticks(r.stall_ticks)},
      {"reconf_rt_prefetch_hidden_ticks_total", ticks(r.hidden_ticks)},
      {"reconf_rt_config_loads_total{kind=\"cold\"}", r.cold_loads},
      {"reconf_rt_config_loads_total{kind=\"warm\"}", r.warm_hits},
      {"reconf_rt_config_loads_total{kind=\"prefetch\"}", r.prefetch_hits},
      {"reconf_rt_prefetch_total{event=\"started\"}", r.prefetch_started},
      {"reconf_rt_prefetch_total{event=\"completed\"}", r.prefetch_completed},
      {"reconf_rt_prefetch_total{event=\"aborted\"}", r.prefetch_aborted},
      {"reconf_rt_evictions_total", r.evictions},
      {"reconf_fault_injected_total{kind=\"wcet\"}", f.wcet_overruns},
      {"reconf_fault_injected_total{kind=\"port\"}", f.port_failures},
      {"reconf_fault_injected_total{kind=\"slow\"}", f.port_slowed_loads},
      {"reconf_fault_injected_total{kind=\"fabric\"}", f.fabric_faults},
      {"reconf_fault_recovered_total{action=\"abort\"}", f.overrun_aborts},
      {"reconf_fault_recovered_total{action=\"skip\"}", f.overrun_skips},
      {"reconf_fault_recovered_total{action=\"retry\"}",
       f.load_retries + f.prefetch_refails},
      {"reconf_fault_recovered_total{action=\"reload\"}", f.fabric_reloads},
      {"reconf_fault_degraded_total{mode=\"overrun\"}", f.overrun_degrades},
      {"reconf_fault_degraded_total{mode=\"shed\"}", f.sheds},
      {"reconf_fault_degraded_total{mode=\"load-abort\"}", f.load_aborts},
  };
  static const std::vector<obs::Counter*> handles = [&counts] {
    std::vector<obs::Counter*> out;
    for (const auto& entry : counts) {
      out.push_back(&obs::MetricsRegistry::instance().counter(entry.first));
    }
    return out;
  }();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i]->inc(counts[i].second);
  }
}

/// One admitted task generation. A mode change opens a new slot and drains
/// the old one, so slots (and hence job task_index / trace rows) are
/// append-only — the InvariantChecker sees a growing task table, never a
/// mutated row.
struct Slot {
  Task task;
  Ticks next_release = kNoTick;  ///< kNoTick = drained, never releases again
  std::uint64_t sequence = 0;
  int outstanding = 0;   ///< released, not yet completed/abandoned jobs
  bool in_session = false;
  bool resident = false;           ///< configuration loaded on the fabric
  bool loaded_by_prefetch = false; ///< resident via the port, not yet used
  Ticks value = 1;    ///< shed order under graceful degradation
  bool shed = false;  ///< dropped by graceful degradation
  /// The dispatch whose residency check last counted this slot's running
  /// jobs (dispatches count from 1).
  std::uint64_t counted_at = 0;
  TaskAccount acct;
};

/// A runtime job: the shared dispatch record plus the port and fault state.
struct RuntimeJob : sim::ActiveJob {
  bool load_charged = false;  ///< placement already accounted for this job
  Ticks overrun_left = 0;     ///< injected demand beyond the declared C
  bool degraded = false;      ///< running its overrun tail (kDegrade)
};

/// The single reconfiguration port (Resano et al.'s model: one load at a
/// time, preemptible by demand).
struct Port {
  bool active = false;
  std::size_t slot = 0;
  Ticks remaining = 0;
};

class Runtime {
 public:
  Runtime(const Scenario& scenario, const RuntimeConfig& config)
      : scenario_(scenario),
        config_(config),
        device_(scenario.device),
        reconf_(scenario.reconf),
        session_(scenario.device),
        policy_(make_prefetch_policy(config.prefetch)) {
    RECONF_EXPECTS(device_.valid());
    RECONF_EXPECTS(scenario.horizon > 0);
    if (config_.check_invariants) {
      checker_ = std::make_unique<sim::InvariantChecker>(
          sim::SchedulerKind::kEdfNf,
          sim::PlacementMode::kUnrestrictedMigration);
    }
    if (config_.faults != nullptr) {
      injector_ = std::make_unique<fault::FaultInjector>(*config_.faults);
      result_.fault_mode = true;
    }
    result_.scenario = scenario.name;
    result_.horizon = scenario.horizon;
  }

  RuntimeResult run() {
    Ticks now = 0;
    const Ticks horizon = scenario_.horizon;
    for (;;) {
      process_events(now);
      inject_fabric(now);
      detect_misses(now);
      if (now >= horizon) break;
      release_jobs(now);
      dispatch(now);
      start_prefetch(now);
      const Ticks next = next_event_time(now, horizon);
      RECONF_ASSERT(next > now);
      advance(now, next);
      reap_completed(next);
      now = next;
    }
    finish();
    publish_counters(result_);
    return std::move(result_);
  }

 private:
  [[nodiscard]] Ticks load_ticks(const Slot& s) const {
    return reconf_.placement_ticks(s.task.area);
  }

  /// The newest still-releasing slot named `name`.
  [[nodiscard]] std::optional<std::size_t> find_releasing(
      const std::string& name) const {
    for (auto it = releasing_.rbegin(); it != releasing_.rend(); ++it) {
      if (slots_[*it].acct.name == name) return *it;
    }
    return std::nullopt;
  }

  /// The earliest next_release over the releasing slots, or kNoTick.
  void refresh_earliest_release() {
    earliest_release_ = kNoTick;
    for (const std::size_t i : releasing_) {
      earliest_release_ = std::min(earliest_release_, slots_[i].next_release);
    }
  }

  /// Drains slot `i`: it releases no more jobs, and it leaves the session
  /// once its outstanding jobs have ended.
  void stop_releasing(std::size_t i) {
    Slot& s = slots_[i];
    s.next_release = kNoTick;
    const auto at = std::find(releasing_.begin(), releasing_.end(), i);
    RECONF_ASSERT(at != releasing_.end());
    releasing_.erase(at);
    refresh_earliest_release();
    if (s.outstanding == 0) settle_due_ = true;
  }

  /// One of `s`'s jobs left the table (completed, missed, cut at its
  /// budget, abandoned or shed).
  void job_ended(Slot& s) {
    --s.outstanding;
    if (s.outstanding == 0 && s.next_release == kNoTick) settle_due_ = true;
  }

  /// Flips `s.resident`, keeping resident_area_ in step.
  void set_resident(Slot& s, bool resident) {
    if (s.resident == resident) return;
    s.resident = resident;
    resident_area_ += resident ? s.task.area : -std::int64_t{s.task.area};
  }

  /// The admission gate: one try_admit (decide() underneath), latency and
  /// verdict metered, candidate set exposed to the conformance probe.
  svc::AdmissionDecision gate(const Task& t, Ticks at, EventKind kind) {
    TaskSet candidate;
    if (config_.admission_probe) {
      std::vector<Task> tasks(session_.admitted().begin(),
                              session_.admitted().end());
      tasks.push_back(t);
      candidate = TaskSet(std::move(tasks));
    }
    const auto t0 = std::chrono::steady_clock::now();
    svc::AdmissionDecision d = session_.try_admit(t);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    result_.admission_nanos += ns;
    admission_latency().record(ns);
    if (d.admitted) {
      ++result_.admitted;
      result_.peak_admitted_system_util =
          std::max(result_.peak_admitted_system_util,
                   session_.admitted().system_utilization());
    } else {
      ++result_.rejected;
    }
    AdmissionRecord rec;
    rec.at = at;
    rec.kind = kind;
    rec.name = t.name;
    rec.admitted = d.admitted;
    rec.accepted_by = d.accepted_by;
    result_.admissions.push_back(std::move(rec));
    if (config_.admission_probe) {
      config_.admission_probe(candidate, device_, d);
    }
    return d;
  }

  std::size_t open_slot(const ScenarioEvent& e, const Task& t) {
    Slot s;
    s.task = t;
    s.next_release = e.start == kNoTick ? e.at : e.start;
    s.in_session = true;
    s.value = e.value;
    s.acct.name = e.name;
    s.acct.task = t;
    s.acct.first_release = s.next_release;
    earliest_release_ = std::min(earliest_release_, s.next_release);
    slots_.push_back(std::move(s));
    releasing_.push_back(slots_.size() - 1);
    slot_tasks_.push_back(t);
    ts_dirty_ = true;
    return slots_.size() - 1;
  }

  void process_events(Ticks now) {
    const auto& events = scenario_.events;
    while (next_event_ < events.size() && events[next_event_].at <= now) {
      const ScenarioEvent& e = events[next_event_++];
      Task t = e.task;
      t.name = e.name;
      switch (e.kind) {
        case EventKind::kArrive: {
          if (find_releasing(e.name).has_value()) {
            ++result_.ignored_events;  // name still live: ambiguous, skip
            break;
          }
          if (gate(t, e.at, e.kind).admitted) open_slot(e, t);
          break;
        }
        case EventKind::kDepart: {
          const std::optional<std::size_t> s = find_releasing(e.name);
          if (!s) {
            // Departure of a task the gate rejected (or that already left):
            // nothing to drain. Scenarios are written before admission
            // verdicts are known, so this is a counted no-op, not an error.
            ++result_.ignored_events;
            break;
          }
          stop_releasing(*s);  // drain: outstanding jobs finish
          settle_departures(now);
          break;
        }
        case EventKind::kModeChange: {
          const std::optional<std::size_t> old = find_releasing(e.name);
          if (!old) {
            ++result_.ignored_events;
            break;
          }
          // Conservative gate: the new generation must be admissible
          // *alongside* the draining old one — the analysis set covers the
          // transient union, so deadlines already guaranteed stay
          // guaranteed. Rejection leaves the old generation untouched.
          if (gate(t, e.at, e.kind).admitted) {
            stop_releasing(*old);
            settle_departures(now);
            open_slot(e, t);
          }
          break;
        }
      }
    }
  }

  /// Graceful degradation is armed only under OverrunAction::kDegrade — the
  /// one recovery action that can overload an admitted set (every other
  /// action preserves the per-job budget the analysis assumed).
  [[nodiscard]] bool shedding_armed() const noexcept {
    return config_.recovery.overrun == OverrunAction::kDegrade;
  }

  void detect_misses(Ticks now) {
    bool missed_any = false;
    std::vector<RuntimeJob>& active = table_.active();
    for (std::size_t i = 0; i < active.size();) {
      const RuntimeJob& a = active[i];
      if (!a.job.finished() && a.job.abs_deadline <= now) {
        Slot& s = slots_[a.job.task_index];
        ++result_.deadline_misses;
        ++s.acct.missed;
        if (s.acct.first_miss == kNoTick) s.acct.first_miss = now;
        job_ended(s);
        if (checker_ != nullptr) {
          checker_->on_deadline_miss(now, a.job.task_index);
        }
        if (shed_done_ && !s.shed) ++result_.faults.post_shed_misses;
        missed_any = true;
        if (shedding_armed()) recent_misses_.push_back(now);
        // The late job is abandoned at its deadline, as in the simulator's
        // continue mode; its area frees at the next dispatch.
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
    if (missed_any && shedding_armed()) {
      while (!recent_misses_.empty() &&
             recent_misses_.front() + RecoveryPolicy::kShedWindow <= now) {
        recent_misses_.erase(recent_misses_.begin());
      }
      if (static_cast<int>(recent_misses_.size()) >=
          RecoveryPolicy::kShedMissThreshold) {
        shed_lowest_value(now);
        recent_misses_.clear();
      }
    }
    settle_departures(now);
  }

  /// Transient fabric faults: a hit configuration is gone *now*. A running
  /// job pays a full reload in place (its columns are its own; recovery is
  /// a stall, not a reschedule); idle or waiting configurations are simply
  /// invalidated and recharged on next demand; an in-flight port load on a
  /// hit slot is aborted (the port retries via its normal path).
  void inject_fabric(Ticks now) {
    if (injector_ == nullptr) return;
    for (const fault::FaultEvent* e : injector_->take_fabric_faults(now)) {
      obs::Span span("rt.fabric_fault", "fault");
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (!e->name.empty() && s.acct.name != e->name) continue;
        if (port_.active && port_.slot == i) {
          port_.active = false;
          ++result_.prefetch_aborted;
          ++result_.faults.fabric_invalidations;
        }
        if (!s.resident) continue;
        bool running_job = false;
        for (RuntimeJob& a : table_.active()) {
          if (a.job.task_index != i || !a.running) continue;
          running_job = true;
          const Ticks reload = load_ticks(s);
          a.reconfig_remaining += reload;
          result_.stall_ticks += reload;
          s.acct.stall_ticks += reload;
          ++result_.faults.fabric_reloads;
        }
        if (!running_job) {
          set_resident(s, false);
          s.loaded_by_prefetch = false;
          for (RuntimeJob& a : table_.active()) {
            if (a.job.task_index == i && !a.running) {
              a.load_charged = false;
              a.reconfig_remaining = 0;
            }
          }
          ++result_.faults.fabric_invalidations;
        }
      }
    }
  }

  void release_jobs(Ticks now) {
    if (earliest_release_ > now) return;
    for (const std::size_t i : releasing_) {
      Slot& s = slots_[i];
      while (s.next_release <= now) {
        RuntimeJob a;
        a.job.task_index = i;
        a.job.sequence = s.sequence++;
        a.job.release = s.next_release;
        a.job.abs_deadline = s.next_release + s.task.deadline;
        a.job.remaining = s.task.wcet;
        a.job.area = s.task.area;
        if (injector_ != nullptr) {
          a.overrun_left = injector_->wcet_overrun(s.acct.name, a.job.release);
        }
        table_.insert(a);
        s.next_release += s.task.period;
        ++s.outstanding;
        ++s.acct.released;
        ++result_.releases;
      }
    }
    refresh_earliest_release();
  }

  /// Charges (at most once per job) the placement of a job entering the
  /// running set: nothing when its configuration is resident, the remaining
  /// port time when the port is mid-load on it, the full load otherwise.
  /// Returns false when the demand load exhausts its retries: the job is
  /// abandoned, and the placement pass withdraws it.
  bool on_enter_running(RuntimeJob& a, Ticks now) {
    if (a.load_charged) return true;  // resumed after preemption, config kept
    a.load_charged = true;
    Slot& s = slots_[a.job.task_index];
    const Ticks load = load_ticks(s);
    if (s.resident) {
      a.reconfig_remaining = 0;
      if (load > 0) {
        if (s.loaded_by_prefetch) {
          ++result_.prefetch_hits;
          result_.hidden_ticks += load;
          s.acct.hidden_ticks += load;
        } else {
          ++result_.warm_hits;
        }
      }
      s.loaded_by_prefetch = false;
      return true;
    }
    Ticks stall = load;
    if (port_.active && port_.slot == a.job.task_index) {
      // Demand preempts the port: the in-flight prefetch becomes this job's
      // (shortened) stall — a partial hide. (With an injected slow window
      // the in-flight remainder can exceed the nominal load; the hide is
      // then zero, never negative.)
      stall = port_.remaining;
      port_.active = false;
      ++result_.prefetch_partial;
      const Ticks hidden = std::max<Ticks>(0, load - stall);
      result_.hidden_ticks += hidden;
      s.acct.hidden_ticks += hidden;
    } else if (load > 0) {
      if (injector_ != nullptr) {
        const Ticks slowed = load * injector_->load_factor(now);
        if (slowed > load) {
          ++result_.faults.port_slowed_loads;
          result_.faults.port_slow_ticks += slowed - load;
        }
        stall = slowed;
        // Demand-side port failures: each failed attempt costs the full
        // (slowed) load plus an exponential backoff; the retry budget is the
        // recovery policy's. Exhaustion abandons the job.
        int failures = 0;
        while (injector_->load_fails(now)) {
          ++failures;
          if (failures > RecoveryPolicy::kMaxLoadRetries) {
            ++result_.faults.load_aborts;
            job_ended(s);
            return false;
          }
          const Ticks backoff = RecoveryPolicy::backoff_after(failures);
          ++result_.faults.load_retries;
          result_.faults.retry_backoff_ticks += backoff;
          stall += slowed + backoff;
        }
      }
      ++result_.cold_loads;
    }
    a.reconfig_remaining = stall;
    result_.stall_ticks += stall;
    s.acct.stall_ticks += stall;
    set_resident(s, true);  // loading as part of the job's occupancy
    s.loaded_by_prefetch = false;
    return true;
  }

  /// Drops a resident configuration from the fabric. Only slots with no
  /// *running* job are ever evicted; waiting jobs of the victim lose their
  /// (possibly partial) load and will be recharged in full on re-entry.
  void evict(std::size_t slot) {
    Slot& s = slots_[slot];
    RECONF_ASSERT(s.resident);
    set_resident(s, false);
    s.loaded_by_prefetch = false;
    for (RuntimeJob& a : table_.active()) {
      if (a.job.task_index == slot && !a.running) {
        a.load_charged = false;
        a.reconfig_remaining = 0;
      }
    }
    ++result_.evictions;
  }

  /// Enforces fabric capacity after a dispatch: running areas plus
  /// idle-resident configurations plus the in-flight prefetch must fit in
  /// A(H). Demand always wins — eviction order is pure cache (idle, no
  /// outstanding jobs; farthest next release first), then the speculative
  /// port load, then preempted jobs' kept configurations (least urgent
  /// first). Idle configurations therefore never block a ready job, which
  /// is what keeps the dispatch exactly EDF-NF work-conserving (Lemma 2).
  void reconcile_residency(Area running_area) {
    // The idle-resident area: the running sum less each slot that has a
    // running job, counted once (a running job's configuration is always
    // resident). O(active), and all a dispatch costs when the fabric fits.
    std::int64_t extra = resident_area_;
    for (const RuntimeJob& a : table_.active()) {
      if (!a.running) continue;
      Slot& s = slots_[a.job.task_index];
      if (s.counted_at == result_.dispatches) continue;
      RECONF_ASSERT(s.resident);
      s.counted_at = result_.dispatches;
      extra -= s.task.area;
    }
    if (port_.active) extra += slots_[port_.slot].task.area;
    if (running_area + extra <= device_.width) return;

    const auto has_running = [&](std::size_t slot) {
      for (const RuntimeJob& a : table_.active()) {
        if (a.running && a.job.task_index == slot) return true;
      }
      return false;
    };
    while (running_area + extra > device_.width) {
      // Pure cache victims: resident, idle, nothing outstanding.
      std::optional<std::size_t> victim;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (!s.resident || s.outstanding != 0) continue;
        if (port_.active && port_.slot == i) continue;
        if (!victim) {
          victim = i;
          continue;
        }
        // Farthest next release first (kNoTick — drained — farthest of
        // all), ties by larger area, then higher slot, for determinism.
        const Slot& v = slots_[*victim];
        if (s.next_release != v.next_release) {
          if (s.next_release > v.next_release) victim = i;
        } else if (s.task.area != v.task.area) {
          if (s.task.area > v.task.area) victim = i;
        } else {
          victim = i;
        }
      }
      if (victim) {
        extra -= slots_[*victim].task.area;
        evict(*victim);
        continue;
      }
      if (port_.active) {
        extra -= slots_[port_.slot].task.area;
        port_.active = false;
        ++result_.prefetch_aborted;
        continue;
      }
      // Last resort: preempted jobs' kept configurations, least urgent
      // (latest earliest-deadline) first.
      std::optional<std::size_t> waiting;
      Ticks waiting_key = std::numeric_limits<Ticks>::min();
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (!s.resident || has_running(i)) continue;
        Ticks key = std::numeric_limits<Ticks>::max();
        for (const RuntimeJob& a : table_.active()) {
          if (a.job.task_index == i && !a.running) {
            key = std::min(key, a.job.abs_deadline);
          }
        }
        if (key == std::numeric_limits<Ticks>::max()) {
          key = s.next_release == kNoTick
                    ? std::numeric_limits<Ticks>::max() - 1
                    : s.next_release;
        }
        if (!waiting || key > waiting_key ||
            (key == waiting_key && i > *waiting)) {
          waiting = i;
          waiting_key = key;
        }
      }
      RECONF_ASSERT(waiting.has_value());
      extra -= slots_[*waiting].task.area;
      evict(*waiting);
    }
  }

  /// EDF-NF under unrestricted migration, the simulator's dispatch: the
  /// shared job table places the jobs, and the port charges each one that
  /// enters the running set.
  void dispatch(Ticks now) {
    ++result_.dispatches;
    const auto charge = [this, now](RuntimeJob& a) {
      return on_enter_running(a, now);
    };
    const Area used =
        table_.place_migration(device_.width, sim::SchedulerKind::kEdfNf,
                               charge)
            .occupied;
    result_.preemptions += table_.count_preemptions();
    reconcile_residency(used);
    if (config_.observer != nullptr || checker_ != nullptr) {
      if (ts_dirty_) {
        ts_cache_ = TaskSet(slot_tasks_);
        ts_dirty_ = false;
      }
      table_.notify(now, used, ts_cache_, device_, config_.observer,
                    checker_.get());
    }
  }

  /// Offers the idle port to the policy: candidates are admitted,
  /// still-releasing tasks whose configuration is absent and which have no
  /// outstanding job (a waiting job is demand territory).
  void start_prefetch(Ticks now) {
    if (policy_ == nullptr || port_.active || reconf_.free()) return;
    // A failed speculative load backs the port off exponentially before
    // re-prefetching (recovery policy); demand loads are never gated.
    if (port_retry_at_ != kNoTick) {
      if (now < port_retry_at_) return;
      port_retry_at_ = kNoTick;
    }
    candidates_.clear();
    candidate_slots_.clear();
    Area running_area = 0;
    for (const RuntimeJob& a : table_.active()) {
      if (a.running) running_area += a.job.area;
    }
    for (const std::size_t i : releasing_) {
      const Slot& s = slots_[i];
      if (s.resident || s.outstanding != 0) continue;
      if (s.next_release <= now) continue;
      const Ticks load = load_ticks(s);
      if (load <= 0) continue;
      PrefetchCandidate c;
      c.slot = i;
      c.next_release = s.next_release;
      c.load_ticks = load;
      c.deadline = s.task.deadline;
      c.wcet = s.task.wcet;
      c.area = s.task.area;
      candidates_.push_back(c);
      candidate_slots_.push_back(i);
    }
    if (candidates_.empty()) return;
    PrefetchContext ctx;
    ctx.now = now;
    ctx.device_width = device_.width;
    ctx.running_area = running_area;
    ctx.candidates = candidates_;
    const std::optional<std::size_t> pick = policy_->choose(ctx);
    if (!pick || *pick >= candidates_.size()) return;
    const PrefetchCandidate& c = candidates_[*pick];
    const std::size_t slot = candidate_slots_[*pick];

    // Make room, evicting only configurations needed later than the pick
    // (or not at all). If that cannot free enough area, skip this round.
    Area extra = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].resident && slots_[i].outstanding == 0) {
        extra += slots_[i].task.area;
      }
    }
    Area need = running_area + extra + c.area - device_.width;
    if (need > 0) {
      evictable_.clear();
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (!s.resident || s.outstanding != 0) continue;
        if (s.next_release != kNoTick && s.next_release <= c.next_release) {
          continue;  // sooner-needed: never sacrificed for a prefetch
        }
        evictable_.push_back(i);
      }
      std::sort(evictable_.begin(), evictable_.end(),
                [&](std::size_t x, std::size_t y) {
                  const Slot& a = slots_[x];
                  const Slot& b = slots_[y];
                  if (a.next_release != b.next_release) {
                    return a.next_release > b.next_release;
                  }
                  return x > y;
                });
      Area freed = 0;
      std::size_t take = 0;
      while (take < evictable_.size() && freed < need) {
        freed += slots_[evictable_[take++]].task.area;
      }
      if (freed < need) return;
      for (std::size_t i = 0; i < take; ++i) evict(evictable_[i]);
    }
    port_.active = true;
    port_.slot = slot;
    port_.remaining = c.load_ticks;
    if (injector_ != nullptr) {
      const Ticks slowed = c.load_ticks * injector_->load_factor(now);
      if (slowed > c.load_ticks) {
        ++result_.faults.port_slowed_loads;
        result_.faults.port_slow_ticks += slowed - c.load_ticks;
        port_.remaining = slowed;
      }
    }
    ++result_.prefetch_started;
  }

  [[nodiscard]] Ticks next_event_time(Ticks now, Ticks horizon) const {
    Ticks next = horizon;
    if (next_event_ < scenario_.events.size()) {
      next = std::min(next, scenario_.events[next_event_].at);
    }
    next = std::min(next, earliest_release_);
    next = table_.next_event_time(now, next);
    if (port_.active) next = std::min(next, now + port_.remaining);
    if (port_retry_at_ != kNoTick && port_retry_at_ > now) {
      next = std::min(next, port_retry_at_);
    }
    if (injector_ != nullptr) {
      const Ticks fabric = injector_->next_fabric_at(now);
      if (fabric != kNoTick) next = std::min(next, fabric);
    }
    return next;
  }

  void advance(Ticks now, Ticks next) {
    result_.busy_area_time += table_.advance(
        now, next, config_.record_trace ? &result_.trace : nullptr);
    if (port_.active) {
      const Ticks step = std::min(next - now, port_.remaining);
      port_.remaining -= step;
      if (port_.remaining == 0) {
        const Ticks done_at = now + step;
        port_.active = false;
        if (injector_ != nullptr && injector_->load_fails(done_at)) {
          // Speculative load failed at completion: nothing lands on the
          // fabric; back the port off and let start_prefetch re-issue.
          ++result_.faults.prefetch_refails;
          ++consecutive_prefetch_failures_;
          const Ticks backoff =
              RecoveryPolicy::backoff_after(consecutive_prefetch_failures_);
          result_.faults.retry_backoff_ticks += backoff;
          port_retry_at_ = done_at + backoff;
          ++result_.prefetch_aborted;
        } else {
          Slot& s = slots_[port_.slot];
          set_resident(s, true);
          s.loaded_by_prefetch = true;
          consecutive_prefetch_failures_ = 0;
          ++result_.prefetch_completed;
        }
      }
    }
  }

  void reap_completed(Ticks now) {
    std::vector<RuntimeJob>& active = table_.active();
    for (std::size_t i = 0; i < active.size();) {
      RuntimeJob& a = active[i];
      if (a.running && a.job.finished() && a.reconfig_remaining == 0) {
        Slot& s = slots_[a.job.task_index];
        if (a.overrun_left > 0) {
          // Budget enforcement: the job burned its declared C and still has
          // injected demand. What happens next is the recovery policy's
          // overrun action; after the first shed, degrade hardens to abort
          // so the re-validated survivor set keeps its WCET assumption.
          OverrunAction action = config_.recovery.overrun;
          if (action == OverrunAction::kDegrade && shed_done_) {
            action = OverrunAction::kAbort;
          }
          switch (action) {
            case OverrunAction::kAbort:
              ++result_.faults.overrun_aborts;
              break;
            case OverrunAction::kSkipNext:
              ++result_.faults.overrun_skips;
              if (s.next_release != kNoTick) {
                s.next_release += s.task.period;
                refresh_earliest_release();
              }
              break;
            case OverrunAction::kDegrade:
              ++result_.faults.overrun_degrades;
              a.job.remaining = a.overrun_left;
              a.overrun_left = 0;
              a.degraded = true;
              a.was_running = a.running;
              ++i;
              continue;  // keeps running its tail; misses handle the rest
          }
          // Abort / skip: the job ends at its budget — not a completion,
          // not a miss; its deadline guarantee is forfeit by injection.
          job_ended(s);
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        const Ticks response = now - a.job.release;
        ++s.acct.completed;
        s.acct.total_response += response;
        s.acct.max_response = std::max(s.acct.max_response, response);
        job_ended(s);
        ++result_.completions;
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      a.was_running = a.running;
      ++i;
    }
    settle_departures(now);
  }

  /// Finalizes drains: a slot that stopped releasing and has no outstanding
  /// job leaves the admission session — the analyzed set stays a superset
  /// of the releasing set at every instant in between. Runs only when a
  /// drained slot's last job has ended since the last pass (settle_due_).
  void settle_departures(Ticks now) {
    if (!settle_due_) return;
    settle_due_ = false;
    for (Slot& s : slots_) {
      if (s.in_session && s.next_release == kNoTick && s.outstanding == 0) {
        const bool removed = session_.remove(s.task);
        RECONF_ASSERT(removed);
        s.in_session = false;
        s.acct.drained_at = now;
      }
    }
  }

  /// Removes `index` from the releasing set: its outstanding jobs are
  /// erased, its releases stop, and the InvariantChecker from now on treats
  /// any of its jobs in a dispatch as a violation.
  void shed_slot(std::size_t index, Ticks now, bool revalidation_reject) {
    Slot& s = slots_[index];
    s.shed = true;
    stop_releasing(index);
    std::vector<RuntimeJob>& active = table_.active();
    for (std::size_t j = 0; j < active.size();) {
      if (active[j].job.task_index == index) {
        job_ended(s);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(j));
        continue;
      }
      ++j;
    }
    if (checker_ != nullptr) checker_->mark_shed(index, now);
    ++result_.faults.sheds;
    if (revalidation_reject) ++result_.faults.shed_revalidation_rejects;
    ShedRecord rec;
    rec.at = now;
    rec.name = s.acct.name;
    rec.revalidation_reject = revalidation_reject;
    result_.sheds.push_back(std::move(rec));
  }

  /// Graceful degradation: sheds the lowest-value live task, aborts every
  /// degraded overrun tail, then re-validates the survivors through a fresh
  /// AdmissionSession — the degraded set is provably schedulable, not just
  /// smaller. Survivors the gate refuses are shed too.
  void shed_lowest_value(Ticks now) {
    obs::Span span("rt.shed", "fault");
    std::optional<std::size_t> victim;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (!s.in_session || s.shed || s.next_release == kNoTick) continue;
      if (!victim) {
        victim = i;
        continue;
      }
      const Slot& v = slots_[*victim];
      const bool worse = s.value != v.value  ? s.value < v.value
                         : s.task.area != v.task.area
                             ? s.task.area > v.task.area
                             : i > *victim;
      if (worse) victim = i;
    }
    if (!victim) return;
    // Degraded tails lose their extension at the shed point: from here the
    // surviving set must obey the budgets the re-validation assumes (later
    // overruns harden from degrade to abort — see reap_completed).
    std::vector<RuntimeJob>& active = table_.active();
    for (std::size_t j = 0; j < active.size();) {
      if (active[j].degraded) {
        job_ended(slots_[active[j].job.task_index]);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(j));
        continue;
      }
      ++j;
    }
    shed_slot(*victim, now, false);
    // A releasing survivor the fresh gate refuses is shed as well; a
    // draining member it refuses cannot be shed (it is already leaving) —
    // it only blocks the "protected" promotion below.
    bool drains_ok = true;
    svc::AdmissionSession probe(device_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.in_session || s.shed) continue;
      if (probe.try_admit(s.task).admitted) continue;
      if (s.next_release != kNoTick) {
        shed_slot(i, now, true);
      } else {
        drains_ok = false;
        ++result_.faults.shed_revalidation_rejects;
      }
    }
    shed_done_ = true;
    settle_departures(now);
    // In the zero-reconfiguration-cost regime the analysis guarantee is
    // exact, so the re-validated survivors are promoted to protected: any
    // later miss of theirs is an invariant violation, not a statistic.
    if (drains_ok && reconf_.free() && checker_ != nullptr) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].in_session && !slots_[i].shed &&
            slots_[i].next_release != kNoTick) {
          checker_->protect(i);
        }
      }
    }
  }

  void finish() {
    result_.tasks.reserve(slots_.size());
    for (Slot& s : slots_) result_.tasks.push_back(std::move(s.acct));
    if (checker_ != nullptr) {
      result_.invariant_violations = checker_->violations();
    }
    if (injector_ != nullptr) {
      const fault::InjectedCounts& inj = injector_->injected();
      result_.faults.wcet_overruns = inj.wcet_overruns;
      result_.faults.port_failures = inj.port_failures;
      result_.faults.port_slow_events = inj.port_slow_events;
      result_.faults.fabric_faults = inj.fabric_faults;
    }
  }

  const Scenario& scenario_;
  const RuntimeConfig& config_;
  Device device_;
  ReconfCostModel reconf_;
  svc::AdmissionSession session_;
  std::unique_ptr<PrefetchPolicy> policy_;  ///< nullptr = never prefetch
  std::unique_ptr<sim::InvariantChecker> checker_;

  std::size_t next_event_ = 0;
  std::vector<Slot> slots_;
  /// Indices of the slots still releasing (next_release != kNoTick), in
  /// slot order, and their earliest next_release (kNoTick when none).
  std::vector<std::size_t> releasing_;
  Ticks earliest_release_ = kNoTick;
  /// A drained slot's last job has ended since settle_departures last ran.
  bool settle_due_ = false;
  /// Σ area over the resident slots.
  std::int64_t resident_area_ = 0;
  std::vector<Task> slot_tasks_;
  TaskSet ts_cache_;
  bool ts_dirty_ = false;
  sim::JobTable<RuntimeJob> table_;
  Port port_;

  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<Ticks> recent_misses_;  ///< sliding shed window
  bool shed_done_ = false;
  Ticks port_retry_at_ = kNoTick;  ///< speculative-side backoff gate
  int consecutive_prefetch_failures_ = 0;

  std::vector<PrefetchCandidate> candidates_;
  std::vector<std::size_t> candidate_slots_;
  std::vector<std::size_t> evictable_;

  RuntimeResult result_;
};

}  // namespace

std::string RuntimeResult::summary_json() const {
  std::string out = "{\"scenario\":\"" + json_escape(scenario) + "\"";
  out += ",\"horizon\":" + std::to_string(horizon);
  out += ",\"admitted\":" + std::to_string(admitted);
  out += ",\"rejected\":" + std::to_string(rejected);
  out += ",\"releases\":" + std::to_string(releases);
  out += ",\"completions\":" + std::to_string(completions);
  out += ",\"misses\":" + std::to_string(deadline_misses);
  out += ",\"stall_ticks\":" + std::to_string(stall_ticks);
  out += ",\"hidden_ticks\":" + std::to_string(hidden_ticks);
  out += ",\"cold_loads\":" + std::to_string(cold_loads);
  out += ",\"warm_hits\":" + std::to_string(warm_hits);
  out += ",\"prefetch_hits\":" + std::to_string(prefetch_hits);
  out += ",\"prefetch_partial\":" + std::to_string(prefetch_partial);
  out += ",\"prefetch\":{\"started\":" + std::to_string(prefetch_started);
  out += ",\"completed\":" + std::to_string(prefetch_completed);
  out += ",\"aborted\":" + std::to_string(prefetch_aborted) + "}";
  out += ",\"evictions\":" + std::to_string(evictions);
  out += ",\"ignored_events\":" + std::to_string(ignored_events);
  if (fault_mode) {
    // Present only when a fault plan was attached, so fault-free replay
    // lines (the committed scenario corpus) stay byte-identical.
    out += ",\"faults\":{\"wcet_overruns\":" +
           std::to_string(faults.wcet_overruns);
    out += ",\"overrun_aborts\":" + std::to_string(faults.overrun_aborts);
    out += ",\"overrun_skips\":" + std::to_string(faults.overrun_skips);
    out += ",\"overrun_degrades\":" + std::to_string(faults.overrun_degrades);
    out += ",\"port_failures\":" + std::to_string(faults.port_failures);
    out += ",\"load_retries\":" + std::to_string(faults.load_retries);
    out += ",\"load_aborts\":" + std::to_string(faults.load_aborts);
    out += ",\"prefetch_refails\":" + std::to_string(faults.prefetch_refails);
    out += ",\"backoff_ticks\":" + std::to_string(faults.retry_backoff_ticks);
    out += ",\"slow_events\":" + std::to_string(faults.port_slow_events);
    out += ",\"slow_ticks\":" + std::to_string(faults.port_slow_ticks);
    out += ",\"fabric\":" + std::to_string(faults.fabric_faults);
    out += ",\"reloads\":" + std::to_string(faults.fabric_reloads);
    out += ",\"invalidated\":" + std::to_string(faults.fabric_invalidations);
    out += ",\"sheds\":" + std::to_string(faults.sheds);
    out += ",\"shed_rejects\":" +
           std::to_string(faults.shed_revalidation_rejects);
    out += ",\"post_shed_misses\":" + std::to_string(faults.post_shed_misses);
    out += "}";
  }
  out += ",\"invariant_violations\":" +
         std::to_string(invariant_violations.size());
  out += "}";
  return out;
}

RuntimeResult run_scenario(const Scenario& scenario,
                           const RuntimeConfig& config) {
  Runtime runtime(scenario, config);
  return runtime.run();
}

}  // namespace reconf::rt
