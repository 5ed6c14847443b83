#include "exp/series.hpp"

#include <utility>

#include "sim/engine.hpp"

namespace reconf::exp {

SeriesSpec engine_series(std::string name, analysis::AnalysisRequest request,
                         const analysis::AnalyzerRegistry& registry) {
  // Sweep predicates only consume accepted(): decide() answers it from the
  // kernels and stops at the first acceptance, building no report.
  auto engine = std::make_shared<const analysis::AnalysisEngine>(
      std::move(request), registry);
  return {std::move(name),
          [engine](const TaskSet& ts, Device dev) {
            return engine->decide(ts, dev).accepted();
          },
          engine,
          std::nullopt};
}

namespace {

/// Single-test request with the paper's display name for the figure legend.
SeriesSpec one_test_series(const char* name, const char* id,
                           analysis::AnalyzerConfig config) {
  analysis::AnalysisRequest request;
  request.tests = {id};
  request.config = std::move(config);
  return engine_series(name, std::move(request));
}

}  // namespace

SeriesSpec dp_series(analysis::DpOptions options) {
  analysis::AnalyzerConfig config;
  config.dp = options;
  return one_test_series("DP", "dp", std::move(config));
}

SeriesSpec gn1_series(analysis::Gn1Options options) {
  analysis::AnalyzerConfig config;
  config.gn1 = options;
  return one_test_series("GN1", "gn1", std::move(config));
}

SeriesSpec gn2_series(analysis::Gn2Options options) {
  analysis::AnalyzerConfig config;
  config.gn2 = options;
  return one_test_series("GN2", "gn2", std::move(config));
}

SeriesSpec any_test_series() {
  return engine_series("ANY", analysis::AnalysisRequest{});
}

SeriesSpec sim_series(sim::SchedulerKind scheduler, sim::SimConfig base) {
  base.scheduler = scheduler;
  base.stop_on_first_miss = true;
  base.record_trace = false;
  std::optional<analysis::Scheduler> refutes;
  if (base.placement == sim::PlacementMode::kUnrestrictedMigration &&
      base.reconf.free()) {
    if (scheduler == sim::SchedulerKind::kEdfNf) {
      refutes = analysis::Scheduler::kEdfNf;
    } else if (scheduler == sim::SchedulerKind::kEdfFkF) {
      refutes = analysis::Scheduler::kEdfFkF;
    }
  }
  std::string name = std::string("SIM-") + sim::to_string(scheduler);
  return {std::move(name),
          [base](const TaskSet& ts, Device dev) {
            return sim::simulate(ts, dev, base).schedulable;
          },
          nullptr, refutes};
}

std::vector<SeriesSpec> paper_series(sim::SimConfig sim_base) {
  std::vector<SeriesSpec> out;
  out.push_back(dp_series());
  out.push_back(gn1_series());
  out.push_back(gn2_series());
  out.push_back(any_test_series());
  out.push_back(sim_series(sim::SchedulerKind::kEdfNf, sim_base));
  out.push_back(sim_series(sim::SchedulerKind::kEdfFkF, sim_base));
  return out;
}

}  // namespace reconf::exp
