#pragma once

namespace reconf::analysis {

/// Options for the DP test (Theorem 1 — Danne & Platzner's bound with the
/// paper's integer-area correction).
struct DpOptions {
  /// Work-conserving bound A_bnd used on the right-hand side:
  ///  * kIntegerArea — A(H) − A_max + 1 (Lemma 1, the paper's correction for
  ///    integral column counts; Theorem 1 as printed). Default.
  ///  * kOriginalReal — A(H) − A_max (Danne & Platzner's original bound with
  ///    real-valued areas). Kept for the ablation bench.
  enum class Alpha { kIntegerArea, kOriginalReal };
  Alpha alpha = Alpha::kIntegerArea;

  /// DP descends from GFB, which assumes implicit deadlines (D = T). When
  /// true (default) the test refuses tasksets violating that assumption
  /// instead of returning an unsound verdict.
  bool require_implicit_deadlines = true;
};

/// Options for the GN1 test (Theorem 2 — EDF-NF bound derived from BCL).
/// Defaults follow the paper's own worked examples; each flag below names
/// the printed-theorem vs worked-example discrepancy it exposes.
struct Gn1Options {
  /// Denominator of β_i = W̄_i / (·):
  ///  * kPublishedDi — D_i, as printed in Theorem 2 and as used by the
  ///    paper's Table 3 example (β_1 = 4.1/5) and required to reproduce
  ///    Table 1's rejection. Default.
  ///  * kBclWindowDk — D_k, the normalization the BCL derivation implies.
  enum class Normalization { kPublishedDi, kBclWindowDk };
  Normalization normalization = Normalization::kPublishedDi;

  /// Right-hand side area coefficient:
  ///  * kLemma3PlusOne — (A(H) − A_k + 1), used by Lemma 3 and the worked
  ///    example (20/7 for Table 3). Default.
  ///  * kTheoremLiteral — (A(H) − A_k) as printed in Theorem 2.
  enum class Rhs { kLemma3PlusOne, kTheoremLiteral };
  Rhs rhs = Rhs::kLemma3PlusOne;
};

/// Options for the GN2 test (Theorem 3 — EDF-FkF bound derived from BAK2).
struct Gn2Options {
  /// Condition 2 comparison. The theorem prints `≤`, but at the exact
  /// equality occurring for Table 1 that accepts a taskset the paper reports
  /// as rejected; strict `<` (default) reproduces the paper's verdicts.
  bool non_strict_condition2 = false;

  /// Middle branch of β_λ(i) (u_i > λ ∧ λ ≥ C_i/D_i): the paper prints
  /// C_k/T_k; Baker's BAK2, which the lemma follows, uses λ. The branch can
  /// only trigger for post-period deadlines (D_i > T_i). Default: as
  /// published.
  bool bak2_middle_branch = false;
};

}  // namespace reconf::analysis
