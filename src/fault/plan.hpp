#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace reconf::fault {

/// The fault model the runtime recovers from — every class the paper's
/// analysis (and PRs 1-6) silently assumes away:
///
///   kWcetOverrun  a job wants more than its declared C. The runtime's
///                 per-job budget enforcement decides what happens
///                 (rt::OverrunAction: abort / skip next release / degrade).
///   kPortFail     the reconfiguration port fails a load attempt (demand or
///                 prefetch). Recovery: bounded-exponential-backoff retry,
///                 re-prefetch on the speculative side.
///   kPortSlow     a window during which every load the port performs takes
///                 `factor` times as long (bitstream bus contention).
///   kFabric       a transient fabric fault invalidates placed
///                 configurations: a named task's (or, with no name, every)
///                 resident configuration must be reloaded before its next
///                 job executes; running jobs pay the reload in place.
enum class FaultKind {
  kWcetOverrun,
  kPortFail,
  kPortSlow,
  kFabric,
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// One scheduled fault. Only the fields implied by `kind` are meaningful:
///   kWcetOverrun  name (the task), extra (ticks beyond C; consumed by the
///                 first release of `name` at or after `at`)
///   kPortFail     count (consecutive load attempts that fail, consumed by
///                 the first loads at or after `at`)
///   kPortSlow     until (window end, exclusive), factor (load multiplier)
///   kFabric       name (the invalidated task; empty = every resident
///                 configuration)
struct FaultEvent {
  Ticks at = 0;
  FaultKind kind = FaultKind::kWcetOverrun;
  std::string name;
  Ticks extra = 0;
  int count = 1;
  Ticks until = 0;
  Ticks factor = 2;
};

/// A deterministic, replayable fault schedule: events in non-decreasing
/// `at` order. Paired with a scenario, the runtime's behaviour is a pure
/// function of (scenario, plan, RuntimeConfig) — which is what makes the
/// committed chaos corpus bit-stable.
struct FaultPlan {
  std::string name;
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
};

/// Thrown on malformed fault-plan NDJSON; the message names the line number
/// and the offending field.
class FaultPlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a fault plan from NDJSON (layered on svc/json.hpp):
///
///   {"fault_plan":"port-storm"}
///   {"at":100,"fault":"wcet","name":"t1","extra":50}
///   {"at":200,"fault":"port-fail","count":2}
///   {"at":300,"fault":"port-slow","until":800,"factor":3}
///   {"at":400,"fault":"fabric","name":"t2"}
///   {"at":500,"fault":"fabric"}
///
/// The header line carries only the plan name ("" allowed). Events follow in
/// non-decreasing `at` order; unknown keys are rejected, exactly like the
/// scenario codec. Blank lines and lines starting with '#' are skipped.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text);

/// Canonical NDJSON for `plan`; parse_fault_plan(format_fault_plan(p))
/// round-trips bit-exactly for any valid plan.
[[nodiscard]] std::string format_fault_plan(const FaultPlan& plan);

struct FaultPlanGenOptions {
  Ticks horizon = 0;               ///< events drawn in [0, horizon)
  std::vector<std::string> names;  ///< task names overruns/fabric target
  int faults = 6;                  ///< number of fault events
  std::uint64_t seed = 0;
};

/// Deterministically generates one fault plan: same options, same plan, bit
/// for bit (integer arithmetic on the shared Xoshiro stream only).
[[nodiscard]] FaultPlan generate_fault_plan(const FaultPlanGenOptions& options);

/// True when the candidate plan still reproduces the failure being
/// minimized. Must be deterministic (the shrinker revisits equal candidates
/// and assumes equal answers).
using PlanShrinkPredicate = std::function<bool(const FaultPlan&)>;

/// Delta-debugs a failing fault plan to a locally minimal repro through the
/// one minimizer (common/minimize.hpp), within its round and evaluation
/// budgets: events are its units (every one may go), and its fields are
/// those of each event's kind — extra >= 1, count >= 1, factor >= 2 and
/// until >= at + 1. Every committed candidate satisfies `still_fails`; if
/// the input itself does not, it is returned unchanged.
[[nodiscard]] FaultPlan shrink_fault_plan(
    const FaultPlan& plan, const PlanShrinkPredicate& still_fails);

}  // namespace reconf::fault
