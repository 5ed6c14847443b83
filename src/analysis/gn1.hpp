#pragma once

#include "analysis/options.hpp"
#include "analysis/report.hpp"
#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis {

/// Theorem 2 (GN1) — the paper's schedulability bound for EDF-NF, derived
/// from Bertogna et al.'s BCL via the interval-α-work-conserving property
/// (Lemma 2):
///
///   ∀τk: Σ_{i≠k} A_i·min(β_i, 1 − C_k/D_k) < (A(H) − A_k + 1)(1 − C_k/D_k)
///
/// with β_i = (N_i·C_i + min(C_i, max(D_k − N_i·T_i, 0))) / D_i and
/// N_i = ⌊(D_k − D_i)/T_i⌋ + 1 (clamped at 0). Only valid for EDF-NF —
/// EDF-FkF is not interval-α-work-conserving with α based on A_k.
///
/// Defaults follow the paper's worked examples; see Gn1Options in
/// analysis/options.hpp.
[[nodiscard]] TestReport gn1_test(const TaskSet& ts, Device device,
                                  const Gn1Options& options = {});

/// Same condition evaluated in exact rational arithmetic.
[[nodiscard]] TestReport gn1_test_exact(const TaskSet& ts, Device device,
                                        const Gn1Options& options = {});

}  // namespace reconf::analysis
