#pragma once

#include "common/types.hpp"
#include "reconf/cost_model.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis {

/// Reconfiguration-overhead model (paper Section 1, assumption 3 and future
/// work): placing a task on the fabric costs time proportional to its area.
/// The paper suggests folding the overhead into the execution time, "similar
/// to response time analysis in fixed-priority CPU scheduling". The cost of
/// one placement comes from the shared ReconfCostModel, so analysis,
/// simulator and runtime always charge the same quantity.
struct OverheadModel {
  /// What one placement of task τi costs (ticks); see reconf/cost_model.hpp.
  ReconfCostModel cost;

  /// Upper bound on the number of placements charged per job. Every job is
  /// placed at least once; each preemption-and-resume may trigger another
  /// reconfiguration. 1 is optimistic (no preemption re-placement); analysis
  /// users wanting a safe bound pass their preemption budget + 1.
  int placements_per_job = 1;

  /// placement_ticks(A_i)·placements for one job of `t`.
  [[nodiscard]] Ticks charge(const Task& t) const {
    RECONF_EXPECTS(placements_per_job >= 1);
    return cost.placement_ticks(t.area) *
           static_cast<Ticks>(placements_per_job);
  }
};

/// Returns a taskset with C_i := C_i + placement_ticks(A_i)·placements, the
/// analysis-side treatment of reconfiguration overhead. Use together with
/// the simulator's SimConfig::reconf to compare analysis vs simulation
/// (bench_paper's "overhead" section).
[[nodiscard]] TaskSet inflate_for_overhead(const TaskSet& ts,
                                           const OverheadModel& model);

}  // namespace reconf::analysis
