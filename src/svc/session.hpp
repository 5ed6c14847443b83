#pragma once

#include <string>

#include "analysis/detail/scratch.hpp"
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
  /// Set, naming the bound, when the task or the device lies outside the
  /// input domain (task/task.hpp); such a task is refused unanalyzed.
  std::string error;
};

/// Incremental online admission control over one device — the runtime-facing
/// wrapper around an analysis::AnalysisEngine that the paper's introduction
/// motivates: hardware tasks arrive one at a time and the runtime must
/// decide instantly whether the new task can be admitted without
/// endangering the deadlines already guaranteed. The session borrows its
/// engine: an engine is immutable, so one serves every session, and a
/// session costs no analyzer or metric lookups to open.
///
/// The session keeps the currently admitted set twice: as a TaskSet (what
/// `admitted()` returns) and as rows bound in an AnalysisScratch of its own,
/// together with the exact GN2 keys, orders and λ-candidate pool of every
/// row a GN2 verdict has seen (analysis/detail/scratch.hpp). `try_admit`
/// appends the candidate's row to the bound rows, decides them through
/// AnalysisEngine's bound decide — the loop decide(ts) runs — and pops the
/// row again on rejection, which also takes its keys out; an attempt thus
/// derives only the candidate's keys and copies no Task on rejection. An
/// acceptance appends the task to the TaskSet. Only `remove` (accelerator
/// released) rebuilds: it builds the TaskSet of the remaining tasks and
/// rebinds the rows, and the next GN2 verdict sorts their keys afresh. The
/// scratch is the session's, not the thread's: the runtime's shed
/// re-validation runs a second session on the same thread while the first
/// one's rows stay bound.
///
/// Not thread-safe: one session serves one admission stream.
class AdmissionSession {
 public:
  /// Decides through `engine`, which must outlive the session (default:
  /// default_engine()).
  explicit AdmissionSession(
      Device device, const analysis::AnalysisEngine& engine = default_engine());
  /// A temporary engine would be gone before the first try_admit.
  AdmissionSession(Device device, analysis::AnalysisEngine&& engine) = delete;

  /// The process-wide engine of analysis::fast_any_request() — the paper
  /// trio, cheapest-first early exit — built on first use.
  [[nodiscard]] static const analysis::AnalysisEngine& default_engine();

  /// Decides task `t` against the currently admitted set; on acceptance the
  /// task becomes part of the set. A task outside the input domain is
  /// refused with AdmissionDecision::error set.
  AdmissionDecision try_admit(const Task& t);

  /// Removes the first admitted task identical to `t` (all of C, D, T, A and
  /// name); returns false when no such task is admitted.
  bool remove(const Task& t);

  /// The admitted set, in admission order.
  [[nodiscard]] const TaskSet& admitted() const noexcept { return admitted_; }
  [[nodiscard]] Device device() const noexcept { return device_; }
  /// The resolved analysis pipeline (execution order, fingerprint, stats).
  [[nodiscard]] const analysis::AnalysisEngine& engine() const noexcept {
    return *engine_;
  }

 private:
  /// Rows the scratch is sized for up front, so a fresh session does not
  /// regrow its buffers while its admitted set grows. The runtime's gate
  /// decides sets of about 9 rows on average; larger ones regrow once.
  static constexpr std::size_t kReservedRows = 16;

  Device device_;
  const analysis::AnalysisEngine* engine_;
  TaskSet admitted_;
  analysis::detail::AnalysisScratch rows_;  ///< admitted_, bound
};

}  // namespace reconf::svc
