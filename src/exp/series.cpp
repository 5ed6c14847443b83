#include "exp/series.hpp"

#include <memory>
#include <utility>

#include "partition/partitioned.hpp"
#include "sim/engine.hpp"

namespace reconf::exp {

SeriesSpec engine_series(std::string name, analysis::AnalysisRequest request) {
  // Sweep predicates only consume accepted(): early exit keeps the verdict
  // and skips the expensive tail.
  request.early_exit = true;
  auto engine =
      std::make_shared<analysis::AnalysisEngine>(std::move(request));
  return {std::move(name), [engine](const TaskSet& ts, Device dev) {
            return engine->run(ts, dev).accepted();
          }};
}

SeriesSpec analyzer_series(const std::string& id,
                           analysis::AnalyzerConfig config) {
  analysis::AnalysisRequest request;
  request.tests = {id};
  request.config = std::move(config);
  return engine_series(id, std::move(request));
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
  std::string name = std::string("SIM-") + sim::to_string(scheduler);
  return {std::move(name), [base](const TaskSet& ts, Device dev) {
            return sim::simulate(ts, dev, base).schedulable;
          }};
}

SeriesSpec partitioned_series() {
  return one_test_series("PART", "partition", {});
}

std::vector<SeriesSpec> paper_series(sim::SimConfig sim_base, bool include_any,
                                     bool include_fkf_sim) {
  std::vector<SeriesSpec> out;
  out.push_back(dp_series());
  out.push_back(gn1_series());
  out.push_back(gn2_series());
  if (include_any) out.push_back(any_test_series());
  out.push_back(sim_series(sim::SchedulerKind::kEdfNf, sim_base));
  if (include_fkf_sim) {
    out.push_back(sim_series(sim::SchedulerKind::kEdfFkF, sim_base));
  }
  return out;
}

}  // namespace reconf::exp
