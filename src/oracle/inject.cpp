#include "oracle/inject.hpp"

#include <memory>

#include "analysis/detail/scratch.hpp"

namespace reconf::oracle {

namespace {

using analysis::Analyzer;
using analysis::AnalyzerConfig;
using analysis::Capabilities;
using analysis::CostClass;
using analysis::DeadlineModel;
using analysis::FastVerdict;
using analysis::TestReport;
using analysis::Verdict;

/// Accepts on U_S ≤ A(H) + feasibility: necessary, nowhere near sufficient.
class OverAcceptAnalyzer final : public Analyzer {
 public:
  std::string_view id() const noexcept override { return "inject-us-bound"; }
  std::string_view description() const noexcept override {
    return "INJECTED FAULT: necessary U_S bound claimed as sufficient";
  }
  Capabilities capabilities() const noexcept override {
    return {.sound_edf_nf = true,  // the lie the oracle must expose
            .sound_edf_fkf = false,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kArbitrary,
            .cost = CostClass::kLinear};
  }
  TestReport run(const TaskSet& ts, Device device,
                 const AnalyzerConfig&) const override {
    TestReport report;
    report.test_name = "INJECT-US";
    if (const auto issue = basic_feasibility_issue(ts, device)) {
      report.note = issue->reason;
      report.first_failing_task = issue->task_index;
      return report;
    }
    if (ts.system_utilization() <=
        static_cast<double>(device.width) + 1e-9) {
      report.verdict = Verdict::kSchedulable;
    }
    return report;
  }
};

/// Reference path never accepts; fast path accepts even-sized tasksets.
class SplitBrainAnalyzer final : public Analyzer {
 public:
  std::string_view id() const noexcept override { return "inject-split"; }
  std::string_view description() const noexcept override {
    return "INJECTED FAULT: fast path diverges from the reference path";
  }
  Capabilities capabilities() const noexcept override {
    return {.sound_edf_nf = false,
            .sound_edf_fkf = false,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kArbitrary,
            .cost = CostClass::kLinear};
  }
  TestReport run(const TaskSet&, Device, const AnalyzerConfig&) const override {
    TestReport report;
    report.test_name = "INJECT-SPLIT";
    return report;  // always inconclusive
  }
  bool has_fast_path() const noexcept override { return true; }
  FastVerdict run_fast(analysis::detail::AnalysisScratch& scratch, Device,
                       const AnalyzerConfig&) const override {
    FastVerdict v;
    if (scratch.n % 2 == 0) v.verdict = Verdict::kSchedulable;
    return v;
  }
};

}  // namespace

const char* to_string(InjectMode mode) noexcept {
  switch (mode) {
    case InjectMode::kNone: return "none";
    case InjectMode::kOverAccept: return "over-accept";
    case InjectMode::kFastSlow: return "fast-slow";
  }
  return "?";
}

std::optional<InjectMode> inject_mode_from_string(
    std::string_view name) noexcept {
  if (name == "none") return InjectMode::kNone;
  if (name == "over-accept") return InjectMode::kOverAccept;
  if (name == "fast-slow") return InjectMode::kFastSlow;
  return std::nullopt;
}

std::string populate_injected_registry(analysis::AnalyzerRegistry& registry,
                                       InjectMode mode) {
  analysis::register_builtin_analyzers(registry);
  switch (mode) {
    case InjectMode::kNone: return "";
    case InjectMode::kOverAccept:
      registry.add(std::make_unique<OverAcceptAnalyzer>());
      return "inject-us-bound";
    case InjectMode::kFastSlow:
      registry.add(std::make_unique<SplitBrainAnalyzer>());
      return "inject-split";
  }
  return "";
}

}  // namespace reconf::oracle
