#pragma once

#include "analysis/options.hpp"
#include "analysis/report.hpp"
#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis {

/// Theorem 1 (DP) — Danne & Platzner's utilization bound for EDF-FkF with
/// the paper's integer-area correction (Lemma 1):
///
///   ∀τk ∈ Γ: U_S(Γ) ≤ (A(H) − A_max + 1)·(1 − U_T(τk)) + U_S(τk)
///
/// Sufficient for EDF-FkF, hence also for EDF-NF (Danne's dominance result).
/// Refuses tasksets without implicit deadlines. Evaluated by the SoA kernel
/// (double arithmetic, tolerance-guarded comparisons; detail/kernels.hpp).
[[nodiscard]] TestReport dp_test(const TaskSet& ts, Device device,
                                 const DpOptions& options = {});

/// Same condition evaluated in exact rational arithmetic.
[[nodiscard]] TestReport dp_test_exact(const TaskSet& ts, Device device,
                                       const DpOptions& options = {});

}  // namespace reconf::analysis
