#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace reconf::rt {

/// What per-job budget enforcement does when a job exhausts its declared C
/// with work remaining (fault::FaultKind::kWcetOverrun):
///
///   kAbort     the job is terminated at its budget. The analysis assumption
///              (every job consumes at most C) is preserved, so admitted
///              deadlines stay guaranteed; the overrunning job simply loses
///              its tail.
///   kSkipNext  abort the job AND suppress the task's next release — the
///              classic overrun payback: the saved period amortizes the
///              damage already done to lower-priority demand.
///   kDegrade   let the job run long (soft real-time, Singh's regime). This
///              deliberately breaks the WCET assumption, so sustained
///              overload is expected — the runtime answers it with graceful
///              degradation: shed the lowest-value tasks, re-validated
///              through AdmissionSession::try_admit (see RecoveryPolicy).
enum class OverrunAction {
  kAbort,
  kSkipNext,
  kDegrade,
};

[[nodiscard]] constexpr const char* to_string(OverrunAction a) noexcept {
  switch (a) {
    case OverrunAction::kAbort:
      return "abort";
    case OverrunAction::kSkipNext:
      return "skip";
    case OverrunAction::kDegrade:
      return "degrade";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<OverrunAction> overrun_action_from(
    std::string_view name) noexcept {
  if (name == "abort") return OverrunAction::kAbort;
  if (name == "skip") return OverrunAction::kSkipNext;
  if (name == "degrade") return OverrunAction::kDegrade;
  return std::nullopt;
}

/// How the runtime recovers from injected (or real) faults. All integers —
/// the recovery path is part of the bit-stable replay contract. Only the
/// overrun action is configurable; the rest are fixed.
struct RecoveryPolicy {
  OverrunAction overrun = OverrunAction::kAbort;

  /// Port-load failure: retries before giving up on the job (demand side)
  /// or rescheduling the prefetch (speculative side).
  static constexpr int kMaxLoadRetries = 3;
  /// Backoff after the n-th consecutive failure is
  /// min(kRetryBackoff << (n-1), kRetryBackoffCap) ticks.
  static constexpr Ticks kRetryBackoff = 8;
  static constexpr Ticks kRetryBackoffCap = 128;

  /// Graceful degradation (armed only under OverrunAction::kDegrade, the
  /// one action that can overload an admitted set): when at least
  /// `kShedMissThreshold` deadline misses land within a sliding
  /// `kShedWindow`, the runtime sheds the lowest-value live task and
  /// re-validates the survivors through a fresh AdmissionSession — the
  /// degraded set is provably schedulable, not just smaller.
  static constexpr int kShedMissThreshold = 2;
  static constexpr Ticks kShedWindow = 1000;

  [[nodiscard]] static constexpr Ticks backoff_after(
      int consecutive_failures) noexcept {
    if (consecutive_failures <= 0) return 0;
    Ticks b = kRetryBackoff;
    for (int i = 1; i < consecutive_failures && b < kRetryBackoffCap; ++i) {
      b *= 2;
    }
    return b < kRetryBackoffCap ? b : kRetryBackoffCap;
  }
};

}  // namespace reconf::rt
