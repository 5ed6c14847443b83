#pragma once

#include <string>

#include "analysis/engine.hpp"
#include "common/types.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"

namespace reconf::svc {

/// Outcome of one AdmissionSession::try_admit call.
struct AdmissionDecision {
  bool admitted = false;
  /// Id of the first accepting analyzer ("dp"/"gn1"/"gn2"/…); empty when
  /// rejected.
  std::string accepted_by;
};

/// Incremental online admission control over one device — the runtime-facing
/// wrapper around an analysis::AnalysisEngine that the paper's introduction
/// motivates: hardware tasks arrive one at a time and the runtime must
/// decide instantly whether the new task can be admitted without
/// endangering the deadlines already guaranteed.
///
/// The session keeps the currently admitted set. `try_admit` decides the
/// extended set through AnalysisEngine::decide and, on acceptance, keeps
/// that candidate as the admitted set; tasks can later `remove`
/// (accelerator released).
///
/// Not thread-safe: one session serves one admission stream.
class AdmissionSession {
 public:
  /// `request` selects the analyzer lineup (default: the paper trio,
  /// cheapest-first early exit); throws analysis::UnknownAnalyzerError on
  /// unknown ids.
  explicit AdmissionSession(
      Device device,
      analysis::AnalysisRequest request = analysis::fast_any_request());

  /// Decides task `t` against the currently admitted set; on acceptance the
  /// task becomes part of the set.
  AdmissionDecision try_admit(const Task& t);

  /// Removes the first admitted task identical to `t` (all of C, D, T, A and
  /// name); returns false when no such task is admitted.
  bool remove(const Task& t);

  /// The admitted set, in admission order.
  [[nodiscard]] const TaskSet& admitted() const noexcept { return admitted_; }
  [[nodiscard]] Device device() const noexcept { return device_; }
  /// The resolved analysis pipeline (execution order, fingerprint, stats).
  [[nodiscard]] const analysis::AnalysisEngine& engine() const noexcept {
    return engine_;
  }

 private:
  Device device_;
  analysis::AnalysisEngine engine_;
  TaskSet admitted_;
};

}  // namespace reconf::svc
