#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/options.hpp"
#include "common/types.hpp"
#include "svc/verdict_cache.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"

namespace reconf::svc {

/// Outcome of one AdmissionSession::try_admit call.
struct AdmissionDecision {
  bool admitted = false;
  /// The candidate-set key that was looked up / stored in the cache.
  std::uint64_t hash = 0;
  /// Whether the verdict came from the cache instead of a fresh analysis.
  bool cache_hit = false;
  /// Id of the first accepting analyzer ("dp"/"gn1"/"gn2"/…); empty when
  /// rejected.
  std::string accepted_by;
  /// Full per-analyzer diagnostics; only present when the verdict was
  /// freshly computed (a cache hit stores just the CachedVerdict summary)
  /// and the session's request has diagnostics on (the default — a session
  /// built from fast_any_request() decides through the SoA kernels and
  /// leaves this empty).
  std::optional<analysis::AnalysisReport> report;
};

/// Aggregate counters for one session's lifetime.
struct SessionStats {
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t removals = 0;
};

/// Incremental online admission control over one device — the runtime-facing
/// wrapper around an analysis::AnalysisEngine that the paper's introduction
/// motivates: hardware tasks arrive one at a time and the runtime must
/// decide instantly whether the new task can be admitted without
/// endangering the deadlines already guaranteed.
///
/// The session keeps the currently admitted set. `try_admit` evaluates the
/// extended set, consulting an optional shared VerdictCache (keyed by
/// `verdict_cache_key`, which covers both the taskset and this session's
/// engine fingerprint — analyzer lineup + per-test options) before falling
/// back to the engine; tasks can later `remove` (accelerator released),
/// after which a re-admission of the same configuration is a guaranteed
/// cache hit.
///
/// Not thread-safe: one session serves one admission stream. The cache may
/// be shared across sessions/threads — it synchronizes internally, and the
/// fingerprint in the key keeps sessions with different test lineups from
/// ever sharing verdicts.
class AdmissionSession {
 public:
  /// `cache` may be nullptr (every decision re-analyzes). The session keeps
  /// the pointer; the cache must outlive the session. `request` selects the
  /// analyzer lineup (default: the paper trio, run-all for full
  /// diagnostics); throws analysis::UnknownAnalyzerError on unknown ids.
  explicit AdmissionSession(Device device, VerdictCache* cache = nullptr,
                            analysis::AnalysisRequest request = {});

  /// Decides task `t` against the currently admitted set; on acceptance the
  /// task becomes part of the set.
  AdmissionDecision try_admit(const Task& t);

  /// Removes the first admitted task identical to `t` (all of C, D, T, A and
  /// name); returns false when no such task is admitted.
  bool remove(const Task& t);

  /// Removes the admitted task at `index` (in admission order).
  bool remove_at(std::size_t index);

  [[nodiscard]] const std::vector<Task>& admitted() const noexcept {
    return admitted_;
  }
  /// The admitted set as a TaskSet (recomputes aggregates).
  [[nodiscard]] TaskSet admitted_set() const { return TaskSet(admitted_); }
  [[nodiscard]] Device device() const noexcept { return device_; }
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] VerdictCache* cache() const noexcept { return cache_; }
  /// The resolved analysis pipeline (execution order, fingerprint, stats).
  [[nodiscard]] const analysis::AnalysisEngine& engine() const noexcept {
    return engine_;
  }

 private:
  Device device_;
  VerdictCache* cache_ = nullptr;
  analysis::AnalysisEngine engine_;
  std::vector<Task> admitted_;
  SessionStats stats_;
};

}  // namespace reconf::svc
