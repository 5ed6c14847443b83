#pragma once

#include "analysis/options.hpp"
#include "analysis/report.hpp"
#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis {

/// Theorem 3 (GN2) — the paper's schedulability bound for EDF-FkF (hence
/// also EDF-NF), derived from Baker's BAK2 busy-interval extension using the
/// global-α-work-conserving property (Lemma 1).
///
/// For every τk there must exist λ ≥ C_k/T_k (among the β_λ discontinuities
/// {C_i/T_i} ∪ {C_i/D_i : D_i > T_i}) such that with
/// λ_k = λ·max(1, T_k/D_k) and A_bnd = A(H) − A_max + 1 either
///   1) Σ_i A_i·min(β_λ(i), 1 − λ_k) <  A_bnd·(1 − λ_k)   or
///   2) Σ_i A_i·min(β_λ(i), 1)      <  (A_bnd − A_min)(1 − λ_k) + A_min
/// holds (condition 2 strict by default; see Gn2Options in
/// analysis/options.hpp).
///
/// Runtime is O(N³) over the candidate set, as the paper notes.
[[nodiscard]] TestReport gn2_test(const TaskSet& ts, Device device,
                                  const Gn2Options& options = {});

/// Same condition evaluated in exact rational arithmetic.
[[nodiscard]] TestReport gn2_test_exact(const TaskSet& ts, Device device,
                                        const Gn2Options& options = {});

}  // namespace reconf::analysis
