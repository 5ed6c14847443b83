#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "rt/prefetch.hpp"
#include "rt/recovery.hpp"
#include "rt/scenario.hpp"
#include "sim/observer.hpp"
#include "sim/trace.hpp"
#include "svc/session.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"

namespace reconf::fault {
struct FaultPlan;
}  // namespace reconf::fault

namespace reconf::rt {

/// Conformance hook: called once per admission attempt with the exact
/// candidate set the gate evaluated (current admitted set plus the
/// candidate), so tests can independently re-run AnalysisEngine::decide and
/// check the runtime never admits what the analysis rejects.
using AdmissionProbe = std::function<void(
    const TaskSet& candidate, Device device,
    const svc::AdmissionDecision& decision)>;

struct RuntimeConfig {
  /// Which built-in prefetch heuristic drives the reconfiguration port.
  PrefetchKind prefetch = PrefetchKind::kNone;

  bool record_trace = true;
  /// Attach a sim::InvariantChecker to every dispatch (area cap, EDF order,
  /// expiry, Lemma 2 work conservation); violations land in the result.
  bool check_invariants = true;
  /// Extra observer invoked at every dispatch; not owned.
  sim::DispatchObserver* observer = nullptr;

  AdmissionProbe admission_probe;

  /// Optional seeded fault plan replayed against this run; not owned. When
  /// set, the result carries a "faults" section in summary_json() (absent
  /// otherwise, so fault-free replay lines stay byte-identical).
  const fault::FaultPlan* faults = nullptr;
  /// Recovery policy for injected (or organic) faults; see rt/recovery.hpp.
  RecoveryPolicy recovery;
};

/// Per-task (per scenario-generation: a mode change opens a fresh account)
/// runtime accounting.
struct TaskAccount {
  std::string name;
  Task task;
  Ticks first_release = kNoTick;  ///< activation time of this generation
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
  Ticks max_response = 0;
  Ticks total_response = 0;  ///< over completed jobs
  Ticks stall_ticks = 0;     ///< reconfiguration time its jobs waited
  Ticks hidden_ticks = 0;    ///< load time the prefetch port hid for it
  Ticks first_miss = kNoTick;  ///< time of this generation's first miss
  Ticks drained_at = kNoTick;  ///< left the admission session (fully drained)
};

/// One admission-gate attempt (arrivals and mode changes; departures do not
/// gate — draining only shrinks the guaranteed set).
struct AdmissionRecord {
  Ticks at = 0;
  EventKind kind = EventKind::kArrive;
  std::string name;
  bool admitted = false;
  std::string accepted_by;  ///< analyzer id; empty when rejected
};

/// Fault-recovery accounting (all zero on fault-free runs). Counters with
/// an "injected" flavour mirror fault::InjectedCounts; the rest record what
/// the recovery policy did about each injection. Conservation invariant the
/// chaos harness pins: overrun_aborts + overrun_skips + overrun_degrades
/// <= wcet_overruns — an injected overrun either reaches budget enforcement
/// (one action recorded) or its job ended first (deadline miss, load abort,
/// shed, or the horizon).
struct FaultRecoveryStats {
  std::uint64_t wcet_overruns = 0;
  std::uint64_t overrun_aborts = 0;
  std::uint64_t overrun_skips = 0;
  std::uint64_t overrun_degrades = 0;

  std::uint64_t port_failures = 0;     ///< injected load failures consumed
  std::uint64_t load_retries = 0;      ///< demand-side retries taken
  std::uint64_t load_aborts = 0;       ///< jobs abandoned, retries exhausted
  std::uint64_t prefetch_refails = 0;  ///< failures on the speculative side
  Ticks retry_backoff_ticks = 0;       ///< total backoff waited

  std::uint64_t port_slow_events = 0;  ///< slow windows that bit a load
  /// Loads a slow window stretched (one window can slow many). Not in
  /// summary_json(), so the pinned corpus lines stay byte-identical.
  std::uint64_t port_slowed_loads = 0;
  Ticks port_slow_ticks = 0;           ///< extra load ticks the windows cost

  std::uint64_t fabric_faults = 0;         ///< transient fabric events fired
  std::uint64_t fabric_reloads = 0;        ///< running jobs re-loaded in place
  std::uint64_t fabric_invalidations = 0;  ///< idle configurations dropped

  std::uint64_t sheds = 0;  ///< tasks shed by graceful degradation
  std::uint64_t shed_revalidation_rejects = 0;
  std::uint64_t post_shed_misses = 0;  ///< misses by surviving tasks
};

/// One graceful-degradation shed. `revalidation_reject` distinguishes the
/// lowest-value victim (false) from a survivor the fresh AdmissionSession
/// refused during re-validation (true).
struct ShedRecord {
  Ticks at = 0;
  std::string name;
  bool revalidation_reject = false;
};

/// Everything one runtime run produces, and the run's only ledger: the
/// process-wide reconf_rt_* / reconf_fault_* counters are this struct added
/// once per finished run, never bumped per event. Deterministic: a pure
/// function of (scenario, RuntimeConfig) — summary_json() is byte-stable
/// across runs and platforms (integers only), which is what the committed
/// replay corpus pins.
struct RuntimeResult {
  std::string scenario;
  Ticks horizon = 0;

  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;

  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;

  /// Reconfiguration accounting, all in ticks of the single device clock:
  /// `stall_ticks` is load time jobs actually waited occupying their area;
  /// `hidden_ticks` is load time the prefetch port absorbed instead.
  Ticks stall_ticks = 0;
  Ticks hidden_ticks = 0;
  std::uint64_t cold_loads = 0;     ///< demand loads paid in full
  std::uint64_t warm_hits = 0;      ///< configuration survived since last job
  std::uint64_t prefetch_hits = 0;  ///< load fully hidden by the port
  std::uint64_t prefetch_partial = 0;  ///< in-flight load finished on demand
  std::uint64_t prefetch_started = 0;
  std::uint64_t prefetch_completed = 0;
  std::uint64_t prefetch_aborted = 0;
  std::uint64_t evictions = 0;
  /// Events addressing a name that is not live (e.g. a departure scripted
  /// for a task the gate rejected) — counted no-ops, never errors.
  std::uint64_t ignored_events = 0;

  /// Peak Σ A·C/T over the admitted set (absolute, not normalized).
  double peak_admitted_system_util = 0.0;
  /// Σ over dispatch intervals of occupied-area × duration.
  std::int64_t busy_area_time = 0;
  /// Wall time spent inside the admission gate (not replay-stable; excluded
  /// from summary_json).
  std::uint64_t admission_nanos = 0;

  std::vector<TaskAccount> tasks;
  std::vector<AdmissionRecord> admissions;
  sim::Trace trace;
  std::vector<std::string> invariant_violations;

  /// True when a fault plan was attached; gates the "faults" summary field.
  bool fault_mode = false;
  FaultRecoveryStats faults;
  std::vector<ShedRecord> sheds;

  [[nodiscard]] double miss_rate() const noexcept {
    return releases == 0 ? 0.0
                         : static_cast<double>(deadline_misses) /
                               static_cast<double>(releases);
  }

  /// Fraction of total load time the prefetch port hid:
  /// hidden / (hidden + stalled); 0 when no load time at all.
  [[nodiscard]] double stall_hiding_ratio() const noexcept {
    const double total =
        static_cast<double>(hidden_ticks) + static_cast<double>(stall_ticks);
    return total == 0.0 ? 0.0 : static_cast<double>(hidden_ticks) / total;
  }

  /// Canonical one-line JSON of the replay-stable counters (integers only,
  /// fixed field order, no whitespace). The conformance corpus commits this
  /// string verbatim and compares byte-for-byte.
  [[nodiscard]] std::string summary_json() const;
};

/// Runs `scenario` through the online runtime: every arrival / mode change
/// is gated through AnalysisEngine::decide via an svc::AdmissionSession on
/// the serving lineup (analysis::fast_any_request()), admitted tasks
/// release periodic jobs dispatched by EDF next-fit under the paper's
/// unrestricted-migration area model, and reconfiguration loads overlap
/// execution through the single prefetch port when a policy is configured.
///
/// Guarantees (the conformance suite pins these):
///  * a task releases jobs only while it is covered by an admission-gate
///    acceptance; departures drain (the analysis set stays a superset of
///    the releasing set until the last outstanding job finishes);
///  * mode changes gate the transient union: the new parameters are
///    admitted alongside the old (draining) generation or not at all;
///  * with a zero reconfiguration-cost model the dispatch is exactly the
///    simulator's EDF-NF (both dispatch through sim::JobTable; runtime_test's
///    DispatchParity.ZeroCostRuntimeDispatchesLikeTheSimulator compares the
///    two dispatch by dispatch), so admitted-only scenarios meet every
///    deadline.
///
/// Events addressing a name that is not live (a depart scripted for a task
/// the gate rejected) are counted no-ops — see RuntimeResult::ignored_events.
[[nodiscard]] RuntimeResult run_scenario(const Scenario& scenario,
                                         const RuntimeConfig& config = {});

}  // namespace reconf::rt
