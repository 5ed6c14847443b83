#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "reconf/cost_model.hpp"
#include "task/task.hpp"

namespace reconf::rt {

/// Kinds of dynamic workload events the online runtime accepts.
enum class EventKind {
  kArrive,      ///< a new task requests admission
  kDepart,      ///< an admitted task leaves (drains gracefully)
  kModeChange,  ///< an admitted task atomically swaps parameters
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// One timed workload event. `name` addresses the task within the scenario
/// (unique among concurrently-live tasks). `start` is the first release of
/// the (new) task, at or after `at` — the admission-to-activation gap is
/// exactly the window a prefetch policy can use to hide the initial
/// configuration load; kNoTick means "starts at `at`".
struct ScenarioEvent {
  Ticks at = 0;
  EventKind kind = EventKind::kArrive;
  std::string name;
  Task task;             ///< kArrive / kModeChange: the (new) parameters
  Ticks start = kNoTick; ///< first release; kNoTick = at
  /// Relative worth under graceful degradation: the shed path drops the
  /// lowest-value live task first. Optional "value" key (default 1); only
  /// formatted when != 1, so existing corpus lines round-trip unchanged.
  Ticks value = 1;
};

/// A replayable workload: device, horizon, reconfiguration-cost model and a
/// time-ordered event stream. The runtime's result is a pure function of
/// (scenario, RuntimeConfig), which is what makes the committed corpus
/// bit-stable.
struct Scenario {
  std::string name;
  Device device;
  Ticks horizon = 0;       ///< required > 0; runtime stops here
  ReconfCostModel reconf;  ///< configuration latency for this workload
  std::vector<ScenarioEvent> events;  ///< non-decreasing in `at`
};

/// Thrown on malformed scenario NDJSON; the message names the line number
/// and the offending field.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a scenario from its NDJSON text (layered on svc/json.hpp):
///
///   {"scenario":"mode-change","device":100,"horizon":6000,"rho":4}
///   {"at":0,"event":"arrive","name":"fir","c":200,"d":600,"t":600,"a":12}
///   {"at":0,"event":"arrive","name":"fft","c":150,"d":500,"t":500,"a":10,
///    "start":300}
///   {"at":2400,"event":"mode-change","name":"fir","c":300,"d":800,"t":800,
///    "a":14,"start":2800}
///   {"at":4000,"event":"depart","name":"fft"}
///
/// Header fields: device (required), horizon (required), scenario (optional
/// name), rho (optional per-column reconfiguration cost, default 0),
/// "reconf_fixed" (optional per-placement constant, default 0). Event lines
/// follow in non-decreasing `at` order; unknown keys are rejected, exactly
/// like the svc codec — a typo'd "perid" must not silently replay a default.
/// Blank lines and lines starting with '#' are skipped.
[[nodiscard]] Scenario parse_scenario(const std::string& text);

/// Canonical NDJSON for `scenario`; parse_scenario(format_scenario(s))
/// round-trips bit-exactly for any valid scenario.
[[nodiscard]] std::string format_scenario(const Scenario& scenario);

/// Scenario families for the conformance fuzz sweep and the runtime bench.
enum class ScenarioFamily {
  kSteady,      ///< staggered arrivals, rare departures — admission regime
  kChurn,       ///< arrivals, departures and mode changes interleaved
  kReconfHeavy, ///< fat areas, low duty cycles, Σ areas > A(H): every
                ///< release risks a cold configuration — the prefetch regime
};

[[nodiscard]] const char* to_string(ScenarioFamily family) noexcept;
/// Parses the to_string spelling ("steady", "churn", "reconf-heavy").
[[nodiscard]] std::optional<ScenarioFamily> scenario_family_from(
    std::string_view name) noexcept;

struct ScenarioGenOptions {
  ScenarioFamily family = ScenarioFamily::kSteady;
  Device device{100};
  int arrivals = 10;          ///< number of kArrive events
  std::uint64_t seed = 0;
};

/// Deterministically generates one scenario: same options, same scenario,
/// bit for bit. Generated tasks are always well-formed; admission may still
/// reject them (that is the point of gating).
[[nodiscard]] Scenario generate_scenario(const ScenarioGenOptions& options);

/// The distinct names of the tasks arriving in `scenario`, in first-arrival
/// order — the targets a generated fault plan aims overruns and fabric
/// faults at.
[[nodiscard]] std::vector<std::string> arrival_names(
    const Scenario& scenario);

}  // namespace reconf::rt
