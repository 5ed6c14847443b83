#pragma once

#include <functional>
#include <optional>

#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis {

/// Acceptance predicate abstracting over "a schedulability criterion":
/// any of the bound tests, the composite, partitioned feasibility or a
/// simulation run. Must be deterministic.
using AcceptPredicate = std::function<bool(const TaskSet&, Device)>;

/// Sensitivity analysis: the largest uniform WCET scaling factor (in
/// permille, for exact reproducibility) under which `accept` still passes.
///
///   result/1000 ≈ sup { f : accept(scale_wcets(ts, f), device) }
///
/// A classic pessimism metric: the ratio of the simulator's critical scale
/// to a bound test's critical scale quantifies how much real capacity the
/// bound leaves on the table (bench_paper's "sensitivity" section).
/// Requires `accept` to be monotone in WCETs (true for DP/GN1/partitioned/
/// simulation-as-upper-bound within search tolerance; GN2 is near-monotone
/// — the search returns the largest passing point found by bisection either
/// way).
///
/// Returns nullopt when even the smallest sensible scaling (every WCET at
/// 1 tick) is rejected. `max_permille` caps the search (default 4x).
[[nodiscard]] std::optional<int> critical_wcet_scale_permille(
    const TaskSet& ts, Device device, const AcceptPredicate& accept,
    int max_permille = 4000);

/// Scales every WCET by permille/1000 (rounding to nearest tick, clamped to
/// [1, min(D,T)]). The helper used by the sensitivity search; exposed for
/// tests and tooling.
[[nodiscard]] TaskSet scale_wcets(const TaskSet& ts, int permille);

/// The smallest device width in [A_max, max_width] accepted by `accept`,
/// via binary search (valid for width-monotone criteria — all three bound
/// tests are; see analysis_property_test). nullopt if none is accepted.
[[nodiscard]] std::optional<Area> min_feasible_width(
    const TaskSet& ts, const AcceptPredicate& accept, Area max_width);

}  // namespace reconf::analysis
