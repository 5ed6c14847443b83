#pragma once

// The exact evaluation of Theorems 1-3 behind the *_test_exact entry
// points: every inequality in BigRational arithmetic, so the knife-edge
// equalities of the paper's Table 1 are decided exactly. The ground truth
// the property and parity suites compare the floating-point kernels
// (detail/kernels.hpp) against.
//
// Branch decisions that select *which* formula applies (the three-way case
// split of β_λ, the λ-candidate filtering) are taken with exact int64
// rational comparisons, as in the kernels, so both walk the same formula
// tree. The theorems are stated in analysis/dp.hpp, gn1.hpp and gn2.hpp.

#include <algorithm>
#include <vector>

#include "analysis/options.hpp"
#include "analysis/report.hpp"
#include "common/types.hpp"
#include "math/bigrational.hpp"
#include "math/intdiv.hpp"
#include "math/rational.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis::detail {

/// Rejects with a note when basic feasibility prerequisites fail. Every
/// sufficient test must reject such tasksets; checking up front also lets
/// the evaluators assume C <= D <= (well-formed), A <= A(H).
[[nodiscard]] inline bool reject_infeasible(const TaskSet& ts, Device device,
                                            TestReport& report) {
  if (ts.empty()) {
    // An empty taskset is trivially schedulable.
    report.verdict = Verdict::kSchedulable;
    report.note = "empty taskset";
    return true;
  }
  if (const auto issue = basic_feasibility_issue(ts, device)) {
    report.verdict = Verdict::kInconclusive;
    report.first_failing_task = issue->task_index;
    report.note = issue->reason;
    return true;
  }
  return false;
}

/// Appends τ_k's diagnostic; the first failing task decides the verdict.
inline void record_exact(TestReport& report, const TaskDiagnostic& diag) {
  report.per_task.push_back(diag);
  if (!diag.pass && !report.first_failing_task) {
    report.first_failing_task = diag.task_index;
    report.verdict = Verdict::kInconclusive;
  }
}

/// Theorem 1 (DP), exactly.
inline TestReport dp_exact(const TaskSet& ts, Device device,
                           const DpOptions& opt) {
  using math::BigRational;

  TestReport report;
  report.test_name = opt.alpha == DpOptions::Alpha::kIntegerArea
                         ? "DP"
                         : "DP-original-alpha";
  if (reject_infeasible(ts, device, report)) return report;
  if (!ts.all_implicit_deadline()) {
    report.note = "DP requires implicit deadlines (D = T)";
    report.refused = true;
    return report;
  }

  const Area bonus = opt.alpha == DpOptions::Alpha::kIntegerArea ? 1 : 0;
  const BigRational abnd(device.width - ts.max_area() + bonus);

  BigRational us(0);
  for (const Task& t : ts) us += BigRational(t.wcet * t.area, t.period);

  report.verdict = Verdict::kSchedulable;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const Task& tk = ts[k];
    const BigRational rhs =
        abnd * (BigRational(1) - BigRational(tk.wcet, tk.period)) +
        BigRational(tk.wcet * tk.area, tk.period);
    record_exact(report, {.task_index = k,
                          .pass = us <= rhs,
                          .lhs = us.to_double(),
                          .rhs = rhs.to_double()});
  }
  return report;
}

/// Theorem 2 (GN1), exactly.
inline TestReport gn1_exact(const TaskSet& ts, Device device,
                            const Gn1Options& opt) {
  using math::BigRational;

  TestReport report;
  report.test_name = "GN1";
  if (reject_infeasible(ts, device, report)) return report;
  if (!ts.all_constrained_deadline()) {
    report.note = "GN1 requires constrained deadlines (D <= T)";
    report.refused = true;
    return report;
  }

  report.verdict = Verdict::kSchedulable;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const Task& tk = ts[k];
    const BigRational slack_frac =
        BigRational(1) - BigRational(tk.wcet, tk.deadline);  // 1 − C_k/D_k
    const Area rk_area =
        device.width - tk.area +
        (opt.rhs == Gn1Options::Rhs::kLemma3PlusOne ? 1 : 0);
    const BigRational rhs = BigRational(rk_area) * slack_frac;

    BigRational lhs(0);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (i == k) continue;
      const Task& ti = ts[i];
      const std::int64_t ni = std::max<std::int64_t>(
          0, math::floor_div(tk.deadline - ti.deadline, ti.period) + 1);
      const Ticks carry =
          std::min(ti.wcet, std::max<Ticks>(tk.deadline - ni * ti.period, 0));
      const Ticks w_bar = ni * ti.wcet + carry;
      const Ticks denom =
          opt.normalization == Gn1Options::Normalization::kPublishedDi
              ? ti.deadline
              : tk.deadline;
      lhs += BigRational(ti.area) *
             math::rmin(BigRational(w_bar, denom), slack_frac);
    }
    record_exact(report, {.task_index = k,
                          .pass = lhs < rhs,
                          .lhs = lhs.to_double(),
                          .rhs = rhs.to_double()});
  }
  return report;
}

/// Theorem 3 (GN2), exactly: every candidate λ re-sums all n β_λ(i), the
/// O(N³) evaluation the paper describes.
inline TestReport gn2_exact(const TaskSet& ts, Device device,
                            const Gn2Options& opt) {
  using math::BigRational;
  using math::Rational;

  TestReport report;
  report.test_name = "GN2";
  if (reject_infeasible(ts, device, report)) return report;

  const BigRational abnd(device.width - ts.max_area() + 1);
  const BigRational amin(ts.min_area());
  const BigRational one(1);

  // Global candidate pool (exact): β_λ discontinuities.
  std::vector<Rational> pool;
  pool.reserve(2 * ts.size());
  for (const Task& t : ts) {
    pool.emplace_back(t.wcet, t.period);
    if (t.deadline > t.period) pool.emplace_back(t.wcet, t.deadline);
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  report.verdict = Verdict::kSchedulable;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const Task& tk = ts[k];
    const Rational uk_exact(tk.wcet, tk.period);
    // λ_k = λ·max(1, T_k/D_k); the scale factor is exact.
    const Rational lk_scale =
        math::rmax(Rational(1), Rational(tk.period, tk.deadline));

    TaskDiagnostic diag;
    diag.task_index = k;
    for (const Rational& lambda : pool) {
      if (lambda < uk_exact) continue;  // theorem requires λ ≥ C_k/T_k
      const Rational lk_exact = lambda * lk_scale;
      if (!(lk_exact < Rational(1))) break;  // no slack bound from here on

      const BigRational lambda_r(lambda);
      const BigRational one_minus_lk = one - BigRational(lk_exact);

      BigRational lhs_capped(0);  // Σ A_i·min(β, 1 − λ_k)
      BigRational lhs_unit(0);    // Σ A_i·min(β, 1)
      for (const Task& ti : ts) {
        const Rational ui_exact(ti.wcet, ti.period);
        BigRational beta;
        if (!(ui_exact > lambda)) {  // u_i ≤ λ
          const BigRational ui(ui_exact);
          const BigRational alt =
              ui * (one - BigRational(ti.deadline, tk.deadline)) +
              BigRational(ti.wcet, tk.deadline);
          beta = math::rmax(ui, alt);
        } else if (!(Rational(ti.wcet, ti.deadline) > lambda)) {
          // u_i > λ ∧ λ ≥ C_i/D_i
          beta = BigRational(uk_exact);
        } else {
          beta = BigRational(ui_exact) +
                 (BigRational(ti.wcet) - lambda_r * BigRational(ti.deadline)) /
                     BigRational(tk.deadline);
        }
        const BigRational ai(ti.area);
        lhs_capped += ai * math::rmin(beta, one_minus_lk);
        lhs_unit += ai * math::rmin(beta, one);
      }

      const BigRational rhs1 = abnd * one_minus_lk;
      const BigRational rhs2 = (abnd - amin) * one_minus_lk + amin;
      const bool cond1 = lhs_capped < rhs1;
      const bool cond2 =
          opt.non_strict_condition2 ? lhs_unit <= rhs2 : lhs_unit < rhs2;
      diag.pass = cond1 || cond2;
      diag.lambda = lambda.to_double();
      // On failure keep the nearer miss of the two conditions.
      const bool first =
          diag.pass ? cond1 : lhs_capped - rhs1 < lhs_unit - rhs2;
      diag.condition = diag.pass ? (first ? 1 : 2) : (first ? -1 : -2);
      diag.lhs = (first ? lhs_capped : lhs_unit).to_double();
      diag.rhs = (first ? rhs1 : rhs2).to_double();
      if (diag.pass) break;
    }
    record_exact(report, diag);
  }
  return report;
}

}  // namespace reconf::analysis::detail
