#pragma once

// The floating-point implementation of Theorems 1–3: kernels over an
// AnalysisScratch (detail/scratch.hpp). Every double-valued verdict of the
// three theorems comes from here — dp_test/gn1_test/gn2_test and
// AnalysisEngine::run() pass a TestReport, AnalysisEngine::decide() passes
// none. The *_test_exact entry points evaluate the same conditions in exact
// arithmetic instead (detail/evaluators.hpp).
//
//  * Formula selection (β_λ branches, λ-candidate filtering, feasibility)
//    is taken with exact int64 rational comparisons, exactly like the exact
//    evaluators; only the final inequalities are compared in double, with
//    the ε guard of math/eps.hpp.
//  * Given nullptr, a kernel returns at the first failing task and touches
//    no storage but the scratch, allocating nothing once it is warm: the
//    result is a 16-byte FastVerdict.
//  * Given a TestReport, it evaluates every task and fills the report: test
//    name, per-task lhs/rhs/pass, GN2's λ and condition (on failure the
//    nearer miss at the last λ), first_failing_task, and the
//    empty/infeasible/refusal notes. The verdict and first failing task
//    are the same either way.
//
// gn2_fast is an incremental λ-sweep: tasks are walked in the exact global
// C/T and min(C/D, C/T) orders, each task's β-branch changes at most twice,
// and the min() caps against 1 and 1 − λ_k are tracked by per-k sorted
// crossing events plus a β-heap — amortized O(1) per (k, λ), O(n² log n)
// per verdict instead of the O(n³) of re-summing every β per candidate.
// Its sums are aggregate partial sums, so an lhs may differ from the exact
// value by O(1e-13) rounding; the fastpath parity suite checks verdicts,
// per-task passes and GN2's λ/condition against the exact evaluators.

#include "analysis/detail/scratch.hpp"
#include "analysis/options.hpp"
#include "analysis/report.hpp"
#include "common/types.hpp"

namespace reconf::analysis::detail {

/// Theorem 1 over the scratch.
[[nodiscard]] FastVerdict dp_fast(const AnalysisScratch& s, Device device,
                                  const DpOptions& opt,
                                  TestReport* report = nullptr);

/// Theorem 2 over the scratch.
[[nodiscard]] FastVerdict gn1_fast(const AnalysisScratch& s, Device device,
                                   const Gn1Options& opt,
                                   TestReport* report = nullptr);

/// Theorem 3 as the incremental λ-sweep.
[[nodiscard]] FastVerdict gn2_fast(AnalysisScratch& s, Device device,
                                   const Gn2Options& opt,
                                   TestReport* report = nullptr);

}  // namespace reconf::analysis::detail
