#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/options.hpp"
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
};

/// A curve from an arbitrary AnalysisRequest: the engine is resolved once
/// and shared by every (concurrent) evaluation. This is how new registry
/// backends get into figures without touching the harness.
[[nodiscard]] SeriesSpec engine_series(std::string name,
                                       analysis::AnalysisRequest request);

/// A single-analyzer curve by registry id (name defaults to the id).
[[nodiscard]] SeriesSpec analyzer_series(const std::string& id,
                                         analysis::AnalyzerConfig config = {});

/// The three bound tests of the paper.
[[nodiscard]] SeriesSpec dp_series(analysis::DpOptions options = {});
[[nodiscard]] SeriesSpec gn1_series(analysis::Gn1Options options = {});
[[nodiscard]] SeriesSpec gn2_series(analysis::Gn2Options options = {});

/// Section 6 recommendation: accept when any of the paper's bounds accepts.
[[nodiscard]] SeriesSpec any_test_series();

/// Simulation upper bound (synchronous release at t = 0), for the given
/// scheduler. `base` carries horizon and placement settings; its scheduler
/// field is overridden.
[[nodiscard]] SeriesSpec sim_series(sim::SchedulerKind scheduler,
                                    sim::SimConfig base = {});

/// Partitioned-EDF baseline (Danne & Platzner RAW'06).
[[nodiscard]] SeriesSpec partitioned_series();

/// The figure line-up used by the paper (DP, GN1, GN2 + simulation) plus
/// ANY; `sim_base` configures the simulation horizon.
[[nodiscard]] std::vector<SeriesSpec> paper_series(sim::SimConfig sim_base = {},
                                                   bool include_any = true,
                                                   bool include_fkf_sim = true);

}  // namespace reconf::exp
