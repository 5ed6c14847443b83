#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "common/types.hpp"

namespace reconf::rt {

/// Built-in configuration-prefetch heuristics. The runtime overlaps
/// reconfiguration with execution by loading a task's configuration through
/// the (single) reconfiguration port *before* its next release, in the
/// spirit of Resano et al.'s hybrid prefetch heuristic (PAPERS.md):
/// configuration latency is charged to a job only when the load was not
/// hidden in time.
enum class PrefetchKind {
  kNone,    ///< never prefetch: every cold placement stalls (baseline)
  kStatic,  ///< fixed lookahead window, earliest-next-release first
  kHybrid,  ///< adaptive: minimum-laxity first, partial hides allowed
};

[[nodiscard]] const char* to_string(PrefetchKind kind) noexcept;
/// Parses "none" / "static" / "hybrid"; nullopt otherwise.
[[nodiscard]] std::optional<PrefetchKind> prefetch_kind_from(
    std::string_view name) noexcept;

/// One prefetchable task: admitted, still releasing, configuration not
/// resident, no job of it currently waiting (a waiting job is a demand load
/// the dispatcher already handles).
struct PrefetchCandidate {
  std::size_t slot = 0;    ///< runtime task slot (opaque to policies)
  Ticks next_release = 0;  ///< its next job release; strictly after `now`
  Ticks load_ticks = 0;    ///< full configuration load cost
  Ticks deadline = 0;      ///< relative deadline D of the task
  Ticks wcet = 0;          ///< C of the task
  Area area = 0;

  /// Latest tick the load can start and still finish before the release —
  /// the load's own deadline. The hybrid policy runs EDF on these.
  [[nodiscard]] Ticks load_deadline() const noexcept {
    return next_release - load_ticks;
  }

  /// Slack of the *next* job if its load starts now: time to release plus
  /// the stall the job could absorb without missing (D − C), minus the
  /// load. Negative = the next job will stall into its own deadline unless
  /// loading starts immediately.
  [[nodiscard]] Ticks laxity(Ticks now) const noexcept {
    return (next_release - now) + (deadline - wcet) - load_ticks;
  }
};

/// Snapshot handed to a policy whenever the reconfiguration port is idle.
struct PrefetchContext {
  Ticks now = 0;
  Area device_width = 0;
  Area running_area = 0;  ///< occupied by currently running jobs
  std::span<const PrefetchCandidate> candidates;
};

/// Pluggable prefetch heuristic. `choose` returns an index into
/// `ctx.candidates` to start loading next, or nullopt to keep the port
/// idle. The runtime owns eviction and area feasibility: a chosen candidate
/// may still be skipped when the fabric cannot make room without evicting a
/// sooner-needed configuration. Implementations may keep state; one policy
/// instance serves one runtime.
class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;
  [[nodiscard]] virtual std::optional<std::size_t> choose(
      const PrefetchContext& ctx) = 0;
};

/// Static lookahead à la the compile-time half of Resano et al.: consider
/// only candidates releasing within a fixed window, load the
/// earliest-releasing one first. Simple, predictable, blind to urgency —
/// a far release with zero slack loses to a near release with plenty.
class StaticLookaheadPolicy final : public PrefetchPolicy {
 public:
  static constexpr Ticks kWindow = 10 * kTicksPerUnit;

  [[nodiscard]] std::optional<std::size_t> choose(
      const PrefetchContext& ctx) override;
};

/// Hybrid heuristic à la Resano et al.: no fixed window — every candidate
/// competes, and the port runs EDF over the *loads*: each load's deadline
/// is the latest start that still finishes before its job's release
/// (next_release − load_ticks), so big configurations automatically gain
/// urgency proportional to their load time. Ties fall back to job laxity
/// (how close the next job is to stalling into its own deadline). Partial
/// hides count: a load that cannot finish before the release still
/// shortens the job's stall by however much it got done.
class HybridPrefetchPolicy final : public PrefetchPolicy {
 public:
  [[nodiscard]] std::optional<std::size_t> choose(
      const PrefetchContext& ctx) override;
};

/// Factory for the built-in policies; nullptr for kNone (the runtime treats
/// a null policy as "never prefetch").
[[nodiscard]] std::unique_ptr<PrefetchPolicy> make_prefetch_policy(
    PrefetchKind kind);

}  // namespace reconf::rt
