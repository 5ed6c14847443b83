#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/options.hpp"
#include "analysis/registry.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"
#include "task/taskset.hpp"

namespace reconf::exp {

/// One curve in an acceptance-ratio figure: a name plus an acceptance
/// predicate. Predicates must be thread-safe (they are called concurrently
/// on distinct tasksets).
struct SeriesSpec {
  std::string name;
  std::function<bool(const TaskSet&, Device)> accept;

  /// The engine behind a bound series; null for simulations and bare
  /// predicates. run_sweep reads its analyzers' Capabilities to decide
  /// which simulations' misses refute the series' acceptances.
  std::shared_ptr<const analysis::AnalysisEngine> engine;

  /// Set only on a simulation of the paper's model (EDF-NF or EDF-FkF,
  /// unrestricted migration, free reconfiguration): the scheduler whose
  /// missed deadline on a sample refutes a bound series' acceptance of that
  /// same sample. EDF-US and contiguous placement are outside the theorems
  /// and refute nothing.
  std::optional<analysis::Scheduler> refutes;
};

/// A bound series from an arbitrary AnalysisRequest: the engine is resolved
/// once against `registry` and shared by every (concurrent) evaluation. This
/// is how any registered analyzer gets into a figure without touching the
/// harness; `registry` must outlive the series.
[[nodiscard]] SeriesSpec engine_series(
    std::string name, analysis::AnalysisRequest request,
    const analysis::AnalyzerRegistry& registry =
        analysis::AnalyzerRegistry::instance());

/// The three bound tests of the paper.
[[nodiscard]] SeriesSpec dp_series(analysis::DpOptions options = {});
[[nodiscard]] SeriesSpec gn1_series(analysis::Gn1Options options = {});
[[nodiscard]] SeriesSpec gn2_series(analysis::Gn2Options options = {});

/// Section 6 recommendation: accept when any of the paper's bounds accepts.
[[nodiscard]] SeriesSpec any_test_series();

/// Simulation upper bound (synchronous release at t = 0), for the given
/// scheduler. `base` carries horizon, placement and overhead settings; its
/// scheduler field is overridden.
[[nodiscard]] SeriesSpec sim_series(sim::SchedulerKind scheduler,
                                    sim::SimConfig base = {});

/// The figure line-up used by the paper: DP, GN1, GN2, ANY, SIM-EDF-NF and
/// SIM-EDF-FkF; `sim_base` configures the simulation horizon.
[[nodiscard]] std::vector<SeriesSpec> paper_series(sim::SimConfig sim_base = {});

}  // namespace reconf::exp
