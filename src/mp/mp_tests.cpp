#include "mp/mp_tests.hpp"

#include <algorithm>
#include <vector>

#include "math/bigrational.hpp"
#include "math/eps.hpp"
#include "math/intdiv.hpp"
#include "math/rational.hpp"

namespace reconf::mp {

using analysis::TaskDiagnostic;
using analysis::TestReport;
using analysis::Verdict;
using math::BigRational;
using math::Rational;

namespace {

/// Shared feasibility gate: C <= min(D, T) for every task (area is
/// irrelevant on CPUs, but the unit-area convention keeps `as_unit_area`
/// tasksets valid for the FPGA tests too).
bool reject_infeasible(const TaskSet& ts, MpPlatform platform,
                       TestReport& report) {
  if (!platform.valid()) {
    report.note = "platform must have at least one processor";
    return true;
  }
  if (ts.empty()) {
    report.verdict = Verdict::kSchedulable;
    report.note = "empty taskset";
    return true;
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Task& t = ts[i];
    if (!t.well_formed() || t.wcet > t.deadline || t.wcet > t.period) {
      report.first_failing_task = i;
      report.note = "task infeasible in isolation";
      return true;
    }
  }
  return false;
}

}  // namespace

TaskSet as_unit_area(const TaskSet& ts) { return ts.with_uniform_area(1); }

TestReport gfb_test(const TaskSet& ts, MpPlatform platform) {
  TestReport report;
  report.test_name = "GFB";
  if (reject_infeasible(ts, platform, report)) return report;

  if (!ts.all_implicit_deadline()) {
    report.note = "GFB requires implicit deadlines (D = T)";
    report.refused = true;
    return report;
  }

  // Exact evaluation: U_T(Γ) ≤ m − (m − 1)·u_max.
  BigRational ut(0);
  Rational umax(0);
  for (const Task& t : ts) {
    ut += BigRational(t.wcet, t.period);
    umax = math::rmax(umax, Rational(t.wcet, t.period));
  }
  const int m = platform.processors;
  const BigRational rhs =
      BigRational(m) - BigRational(m - 1) * BigRational(umax);

  TaskDiagnostic diag;
  diag.task_index = 0;
  diag.lhs = ut.to_double();
  diag.rhs = rhs.to_double();
  diag.pass = ut <= rhs;
  report.per_task.push_back(diag);
  report.verdict = diag.pass ? Verdict::kSchedulable : Verdict::kInconclusive;
  if (!diag.pass) report.first_failing_task = 0;
  return report;
}

TestReport bcl_test(const TaskSet& ts, MpPlatform platform) {
  TestReport report;
  report.test_name = "BCL";
  if (reject_infeasible(ts, platform, report)) return report;

  // BCL's interference window assumes D ≤ T, like GN1 which descends from
  // it; refuse arbitrary deadlines instead of over-accepting.
  if (!ts.all_constrained_deadline()) {
    report.note = "BCL requires constrained deadlines (D <= T)";
    report.refused = true;
    return report;
  }

  report.verdict = Verdict::kSchedulable;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const Task& tk = ts[k];
    const Ticks slack = tk.deadline - tk.wcet;  // D_k − C_k ≥ 0 (gate above)

    // Everything is integer ticks, so the comparison is exact.
    std::int64_t lhs = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (i == k) continue;
      const Task& ti = ts[i];
      const std::int64_t ni = std::max<std::int64_t>(
          0, math::floor_div(tk.deadline - ti.deadline, ti.period) + 1);
      const Ticks carry =
          std::min(ti.wcet, std::max<Ticks>(tk.deadline - ni * ti.period, 0));
      const Ticks w_bar = ni * ti.wcet + carry;
      lhs += std::min<Ticks>(w_bar, slack);
    }
    const std::int64_t rhs =
        static_cast<std::int64_t>(platform.processors) * slack;

    TaskDiagnostic diag;
    diag.task_index = k;
    diag.lhs = static_cast<double>(lhs);
    diag.rhs = static_cast<double>(rhs);
    diag.pass = lhs < rhs;
    report.per_task.push_back(diag);
    if (!diag.pass && !report.first_failing_task) {
      report.first_failing_task = k;
      report.verdict = Verdict::kInconclusive;
    }
  }
  return report;
}

TestReport bak1_test(const TaskSet& ts, MpPlatform platform) {
  TestReport report;
  report.test_name = "BAK1";
  if (reject_infeasible(ts, platform, report)) return report;

  // β's (T_i − D_i) term goes negative for D_i > T_i, shrinking the
  // interference estimate below its constrained-deadline meaning; refuse
  // arbitrary deadlines like the capability metadata declares.
  if (!ts.all_constrained_deadline()) {
    report.note = "BAK1 requires constrained deadlines (D <= T)";
    report.refused = true;
    return report;
  }

  const double m = static_cast<double>(platform.processors);
  report.verdict = Verdict::kSchedulable;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const Task& tk = ts[k];
    const double lambda_k = tk.density();  // C_k/D_k

    double lhs = 0.0;
    for (const Task& ti : ts) {
      const double beta =
          ti.time_utilization() *
          (1.0 + static_cast<double>(ti.period - ti.deadline) /
                     static_cast<double>(tk.deadline));
      lhs += std::min(beta, 1.0);
    }
    const double rhs = m * (1.0 - lambda_k) + lambda_k;

    TaskDiagnostic diag;
    diag.task_index = k;
    diag.lhs = lhs;
    diag.rhs = rhs;
    diag.lambda = lambda_k;
    diag.pass = math::le(lhs, rhs);
    report.per_task.push_back(diag);
    if (!diag.pass && !report.first_failing_task) {
      report.first_failing_task = k;
      report.verdict = Verdict::kInconclusive;
    }
  }
  return report;
}

TestReport bak2_test(const TaskSet& ts, MpPlatform platform) {
  TestReport report;
  report.test_name = "BAK2";
  if (reject_infeasible(ts, platform, report)) return report;

  const double m = static_cast<double>(platform.processors);

  // β_λ discontinuities (exact candidate pool, as in GN2).
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
    const Rational lk_scale =
        math::rmax(Rational(1), Rational(tk.period, tk.deadline));

    TaskDiagnostic diag;
    diag.task_index = k;
    diag.pass = false;

    for (const Rational& lambda : pool) {
      if (lambda < uk_exact) continue;
      const Rational lk_exact = lambda * lk_scale;
      if (!(lk_exact < Rational(1))) continue;

      const double lambda_r = lambda.to_double();
      const double one_minus_lk = 1.0 - lk_exact.to_double();

      double lhs_capped = 0.0;
      double lhs_unit = 0.0;
      for (const Task& ti : ts) {
        const Rational ui_exact(ti.wcet, ti.period);
        double beta = 0.0;
        if (!(ui_exact > lambda)) {
          const double ui = ti.time_utilization();
          const double alt =
              ui * (1.0 - static_cast<double>(ti.deadline) /
                              static_cast<double>(tk.deadline)) +
              static_cast<double>(ti.wcet) /
                  static_cast<double>(tk.deadline);
          beta = std::max(ui, alt);
        } else if (!(Rational(ti.wcet, ti.deadline) > lambda)) {
          beta = lambda_r;  // Baker's middle branch (λ, not C_k/T_k)
        } else {
          beta = ti.time_utilization() +
                 (static_cast<double>(ti.wcet) -
                  lambda_r * static_cast<double>(ti.deadline)) /
                     static_cast<double>(tk.deadline);
        }
        lhs_capped += std::min(beta, one_minus_lk);
        lhs_unit += std::min(beta, 1.0);
      }

      const double rhs1 = m * one_minus_lk;
      const double rhs2 = (m - 1.0) * one_minus_lk + 1.0;
      const bool cond1 = math::lt(lhs_capped, rhs1);
      const bool cond2 = math::lt(lhs_unit, rhs2);
      if (cond1 || cond2) {
        diag.pass = true;
        diag.lambda = lambda_r;
        diag.condition = cond1 ? 1 : 2;
        diag.lhs = cond1 ? lhs_capped : lhs_unit;
        diag.rhs = cond1 ? rhs1 : rhs2;
        break;
      }
      diag.lambda = lambda_r;
      diag.lhs = lhs_unit;
      diag.rhs = rhs2;
    }

    report.per_task.push_back(diag);
    if (!diag.pass && !report.first_failing_task) {
      report.first_failing_task = k;
      report.verdict = Verdict::kInconclusive;
    }
  }
  return report;
}

}  // namespace reconf::mp
