#pragma once

// Multiprocessor global-EDF schedulability tests — the ancestors the paper's
// FPGA bounds generalize:
//
//   GFB  (Goossens, Funk, Baruah 2003)  →  generalized by DP  (Theorem 1)
//   BCL  (Bertogna, Cirinei, Lipari 05) →  generalized by GN1 (Theorem 2)
//   BAK2 (Baker, TR-051001 2005)        →  generalized by GN2 (Theorem 3)
//
// Multiprocessor scheduling is the special case of 1D FPGA scheduling where
// every task has area 1 and the device has m columns (paper, Section 1).
// These standalone implementations deliberately do NOT share code with
// analysis/ so that the specialization property — FPGA test on unit-area
// tasks ⇔ multiprocessor test on m processors — is a meaningful
// cross-validation, exercised by tests/mp_crosscheck_test.cpp and
// bench_paper's "specialization" section.

#include "analysis/report.hpp"
#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::mp {

/// An identical-multiprocessor platform with `processors` unit-speed CPUs.
struct MpPlatform {
  int processors = 0;

  [[nodiscard]] constexpr bool valid() const noexcept {
    return processors > 0;
  }
};

/// GFB utilization bound for global EDF on m processors (implicit deadlines):
///   U_T(Γ) ≤ m − (m − 1)·max_i(C_i/T_i)
/// Refuses tasksets with D ≠ T (the bound is not valid for them).
[[nodiscard]] analysis::TestReport gfb_test(const TaskSet& ts,
                                            MpPlatform platform);

/// BCL interference bound for global EDF (constrained deadlines):
///   ∀k: Σ_{i≠k} min(W̄_i, D_k − C_k) < m·(D_k − C_k)
/// with W̄_i = N_i·C_i + min(C_i, max(D_k − N_i·T_i, 0)),
/// N_i = max(0, ⌊(D_k − D_i)/T_i⌋ + 1). Evaluated in exact tick arithmetic.
[[nodiscard]] analysis::TestReport bcl_test(const TaskSet& ts,
                                            MpPlatform platform);

/// BAK1 (Baker, RTSS 2003) — the constrained-deadline EDF bound the paper's
/// related-work section tracks between GFB and BAK2:
///   ∀k: Σ_i min(β_k(i), 1) ≤ m·(1 − λ_k) + λ_k
/// with λ_k = C_k/D_k and β_k(i) = (C_i/T_i)·(1 + (T_i − D_i)/D_k).
/// For implicit deadlines (D = T) this reduces to GFB's bound applied at
/// the largest-density task.
[[nodiscard]] analysis::TestReport bak1_test(const TaskSet& ts,
                                             MpPlatform platform);

/// BAK2-style λ-parameterized bound for global EDF: for every k there exists
/// λ ≥ C_k/T_k among the β_λ discontinuities with λ_k = λ·max(1, T_k/D_k),
/// λ_k < 1, such that
///   Σ_i min(β_λ(i), 1 − λ_k) < m·(1 − λ_k)   or
///   Σ_i min(β_λ(i), 1)      < (m − 1)(1 − λ_k) + 1.
/// This is exactly GN2 with A_i = 1, A(H) = m (so A_bnd = m, A_min = 1).
[[nodiscard]] analysis::TestReport bak2_test(const TaskSet& ts,
                                             MpPlatform platform);

/// Interprets a taskset as a multiprocessor workload: all areas forced to 1.
/// FPGA tests run on `as_unit_area(ts)` with Device{m} must agree with the
/// mp tests on MpPlatform{m}.
[[nodiscard]] TaskSet as_unit_area(const TaskSet& ts);

}  // namespace reconf::mp
