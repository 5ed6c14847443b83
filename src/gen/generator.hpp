#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::gen {

/// Synthetic-taskset distribution, following Section 6 of the paper:
/// device A(H) = 100; areas uniform over [area_min, area_max]; periods
/// uniform over (period_min, period_max) time-units; D = T (unless a
/// deadline ratio is configured); C = T × u with u uniform over
/// [util_min, util_max].
///
/// The paper's constrained classes (Fig. 4) are expressed as presets; the
/// paper does not publish their exact numeric ranges, so each preset below
/// records the ranges chosen here, and every field stays configurable.
struct GenProfile {
  int num_tasks = 10;

  Area area_min = 1;
  Area area_max = 100;

  double period_min = 5.0;   ///< paper-units, exclusive lower edge
  double period_max = 20.0;  ///< paper-units, exclusive upper edge

  /// When non-empty, periods are drawn uniformly from this list of tick
  /// values instead of the continuous (period_min, period_max) range. The
  /// oracle's adversarial families use it to force harmonic ladders (small
  /// exact hyperperiods) and pairwise co-prime grids (exploding ones).
  std::vector<Ticks> period_choices;

  double util_min = 0.0;  ///< per-task factor u lower bound
  double util_max = 1.0;  ///< per-task factor u upper bound

  /// D = ratio × T; [1, 1] keeps the paper's implicit deadlines.
  double deadline_ratio_min = 1.0;
  double deadline_ratio_max = 1.0;

  Ticks scale = kTicksPerUnit;  ///< ticks per paper time-unit

  /// Fig. 3: "unconstrained execution time and area size distributions".
  [[nodiscard]] static GenProfile unconstrained(int num_tasks);
  /// Fig. 4(a): "spatially heavy and temporally light tasks" — chosen as
  /// A ~ U[50, 100], u ~ U[0.05, 0.30].
  [[nodiscard]] static GenProfile spatially_heavy_time_light(int num_tasks);
  /// Fig. 4(b): "spatially light and temporally heavy tasks" — chosen as
  /// A ~ U[1, 30], u ~ U[0.50, 1].
  [[nodiscard]] static GenProfile spatially_light_time_heavy(int num_tasks);
};

struct GenRequest {
  GenProfile profile;

  /// When set, per-task utilization factors are rescaled (respecting
  /// C ≤ min(D, T) and C ≥ 1 tick) until U_S(Γ) lands within
  /// `target_tolerance` of this value; generation fails if unreachable.
  std::optional<double> target_system_util;
  double target_tolerance = 0.25;  ///< absolute, in U_S units

  std::uint64_t seed = 0;
};

/// Generates one taskset; nullopt when the target U_S cannot be met with
/// this seed's draw (caller retries with another seed).
[[nodiscard]] std::optional<TaskSet> generate(const GenRequest& request);

/// Retries `generate` with derived sub-seeds; nullopt after `max_attempts`.
[[nodiscard]] std::optional<TaskSet> generate_with_retries(
    const GenRequest& request, int max_attempts = 32);

}  // namespace reconf::gen
