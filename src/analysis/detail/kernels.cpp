#include "analysis/detail/kernels.hpp"

#include <algorithm>

#include "math/eps.hpp"
#include "math/intdiv.hpp"

namespace reconf::analysis::detail {

namespace {

using math::Rational;

// Per-task sweep state bits (AnalysisScratch::state).
constexpr std::uint8_t kInC = 1u << 0;       ///< still in β-branch C
constexpr std::uint8_t kInB = 1u << 1;       ///< currently in β-branch B
constexpr std::uint8_t kUnitBig = 1u << 2;   ///< C task: min(β, 1) == 1 side
constexpr std::uint8_t kCapCapped = 1u << 3; ///< C task: min(β, cap) == cap side

[[nodiscard]] inline double d(std::int64_t v) {
  return static_cast<double>(v);
}

/// Copies the verdict into the report, if any, and returns it.
FastVerdict finish(FastVerdict out, TestReport* report) {
  if (report != nullptr) {
    report->verdict = out.verdict;
    if (out.first_failing_task >= 0) {
      report->first_failing_task =
          static_cast<std::size_t>(out.first_failing_task);
    }
  }
  return out;
}

/// Settles what every test settles before evaluating: an empty taskset is
/// trivially schedulable, and a task failing the basic feasibility
/// prerequisites makes every sufficient test reject. True when settled;
/// otherwise the report, if any, gets room for one diagnostic per task.
bool settled_up_front(const AnalysisScratch& s, Device device,
                      TestReport* report, FastVerdict& out) {
  const char* note = nullptr;
  if (s.n == 0) {
    out.verdict = Verdict::kSchedulable;
    note = "empty taskset";
  } else if (const std::ptrdiff_t bad = s.first_infeasible(device, &note);
             bad >= 0) {
    out.first_failing_task = bad;
  } else {
    if (report != nullptr) report->per_task.reserve(s.n);
    return false;
  }
  if (report != nullptr) report->note = note;
  out = finish(out, report);
  return true;
}

/// The test declines an input outside its model: inconclusive, no failing
/// task, `note` says why.
FastVerdict refuse(TestReport* report, const char* note) {
  if (report != nullptr) {
    report->note = note;
    report->refused = true;
  }
  return finish(FastVerdict{}, report);
}

/// Records τ_k's outcome. Returns true when the kernel should stop: the
/// serving path (no report) stops at the first failing task.
bool record(FastVerdict& out, TestReport* report, const TaskDiagnostic& diag) {
  if (report != nullptr) report->per_task.push_back(diag);
  if (diag.pass) return false;
  if (out.first_failing_task < 0) {
    out.first_failing_task = static_cast<std::ptrdiff_t>(diag.task_index);
  }
  return report == nullptr;
}

/// The verdict once every task is recorded.
FastVerdict conclude(FastVerdict out, TestReport* report) {
  out.verdict = out.first_failing_task < 0 ? Verdict::kSchedulable
                                           : Verdict::kInconclusive;
  return finish(out, report);
}

}  // namespace

// ---------------------------------------------------------------------------
// Theorem 1 (DP; stated in analysis/dp.hpp). The system-utilization sum is
// accumulated in task order.
// ---------------------------------------------------------------------------
FastVerdict dp_fast(const AnalysisScratch& s, Device device,
                    const DpOptions& opt, TestReport* report) {
  if (report != nullptr) {
    report->test_name = opt.alpha == DpOptions::Alpha::kIntegerArea
                            ? "DP"
                            : "DP-original-alpha";
  }
  FastVerdict out;
  if (settled_up_front(s, device, report, out)) return out;
  // DP descends from GFB, which assumes implicit deadlines.
  if (!s.all_implicit) {
    return refuse(report, "DP requires implicit deadlines (D = T)");
  }

  const Area bonus = opt.alpha == DpOptions::Alpha::kIntegerArea ? 1 : 0;
  const double abnd = d(device.width - s.max_area + bonus);

  double us = 0.0;
  for (std::size_t i = 0; i < s.n; ++i) {
    us = us + d(s.wcet[i] * s.area[i]) / d(s.period[i]);
  }

  for (std::size_t k = 0; k < s.n; ++k) {
    const double ut_k = d(s.wcet[k]) / d(s.period[k]);
    const double us_k = d(s.wcet[k] * s.area[k]) / d(s.period[k]);
    const double rhs = abnd * (1.0 - ut_k) + us_k;
    if (record(out, report,
               {.task_index = k,
                .pass = math::le(us, rhs),
                .lhs = us,
                .rhs = rhs})) {
      return out;
    }
  }
  return conclude(out, report);
}

// ---------------------------------------------------------------------------
// Theorem 2 (GN1; stated in analysis/gn1.hpp, variants in options.hpp). The
// interference sum is inherently per-(k, i).
// ---------------------------------------------------------------------------
FastVerdict gn1_fast(const AnalysisScratch& s, Device device,
                     const Gn1Options& opt, TestReport* report) {
  if (report != nullptr) report->test_name = "GN1";
  FastVerdict out;
  if (settled_up_front(s, device, report, out)) return out;
  // Theorem 2 descends from BCL's constrained-deadline interference bound:
  // the W̄_i window arithmetic under-counts interference once D_i > T_i.
  // Found by the differential oracle (heavy_tail_arbitrary family): without
  // this gate GN1 accepts arbitrary-deadline sets the simulator refutes.
  if (!s.all_constrained) {
    return refuse(report, "GN1 requires constrained deadlines (D <= T)");
  }

  const bool plus_one = opt.rhs == Gn1Options::Rhs::kLemma3PlusOne;
  const bool denom_di =
      opt.normalization == Gn1Options::Normalization::kPublishedDi;

  for (std::size_t k = 0; k < s.n; ++k) {
    const Ticks dk = s.deadline[k];
    const double slack_frac = 1.0 - d(s.wcet[k]) / d(dk);
    const Area rk_area = device.width - s.area[k] + (plus_one ? 1 : 0);
    const double rhs = d(rk_area) * slack_frac;

    double lhs = 0.0;
    for (std::size_t i = 0; i < s.n; ++i) {
      if (i == k) continue;
      const std::int64_t ni = std::max<std::int64_t>(
          0, math::floor_div(dk - s.deadline[i], s.period[i]) + 1);
      const Ticks carry = std::min(
          s.wcet[i], std::max<Ticks>(dk - ni * s.period[i], 0));
      const Ticks w_bar = ni * s.wcet[i] + carry;
      const Ticks denom = denom_di ? s.deadline[i] : dk;
      const double beta = d(w_bar) / d(denom);
      lhs = lhs + d(s.area[i]) * std::min(beta, slack_frac);
    }
    if (record(out, report,
               {.task_index = k,
                .pass = math::lt(lhs, rhs),
                .lhs = lhs,
                .rhs = rhs})) {
      return out;
    }
  }
  return conclude(out, report);
}

// ---------------------------------------------------------------------------
// Theorem 3 (GN2; stated in analysis/gn2.hpp), evaluated as an incremental
// λ-sweep. Re-summing all n β_λ(i) per (k, λ) costs O(n³). But as λ grows
// through the sorted candidate pool, each task's contribution is piecewise
// linear in λ with O(1) pieces:
//
//   branch C (λ < min(C_i/D_i, u_i)):  β = u_i + (C_i − λD_i)/D_k  (linear)
//   branch B (C_i/D_i ≤ λ < u_i)    :  β = C_k/T_k                 (shared)
//   branch A (u_i ≤ λ)              :  β = max(u_i, u_i(1 − D_i/D_k)
//                                              + C_i/D_k)         (constant)
//
// and the caps min(β, 1) / min(β, 1 − λ_k) each switch sides at most once
// per piece. The sweep therefore keeps one aggregate per (branch × cap
// side) — integer area sums plus double Σa_iu_i/Σa_iC_i/Σa_iD_i — and
// updates them only at events:
//   * exact branch transitions, consumed by two monotone pointers over the
//     global exact orders (by u_i and by min(C_i/D_i, u_i));
//   * real-valued cap crossings, consumed from per-k sorted arrays (branch
//     C) and a β-max-heap (branch A, whose members arrive over time).
// Every task generates O(1) events, so one k costs O(n log n) and a verdict
// O(n² log n) — measured below cubic by bench_report.
//
// Branch selection and the λ filters stay exact (int64 rationals), like
// the exact evaluator; only the floating-point sums are regrouped, which
// the ε-tolerant comparisons absorb.
// ---------------------------------------------------------------------------
FastVerdict gn2_fast(AnalysisScratch& s, Device device, const Gn2Options& opt,
                     TestReport* report) {
  if (report != nullptr) report->test_name = "GN2";
  FastVerdict out;
  if (settled_up_front(s, device, report, out)) return out;
  s.prepare_gn2();

  const std::size_t n = s.n;
  const double abnd = d(device.width - s.max_area + 1);
  const double amin = d(s.min_area);

  for (std::size_t k = 0; k < n; ++k) {
    const Rational& uk_x = s.util_x[k];
    // λ_k = λ·max(1, T_k/D_k). With D_k ≥ T_k the scale is 1, and λ_k is
    // λ itself: no product to form and normalize per candidate.
    const bool unit_scale = s.period[k] <= s.deadline[k];
    const Rational lk_scale =
        unit_scale ? Rational(1) : Rational(s.period[k], s.deadline[k]);
    const double uk_d = s.util[k];
    const double dk_d = d(s.deadline[k]);
    const double scale_d = lk_scale.to_double();

    // ---- per-k sweep initialization (conceptually at λ = −∞, where every
    // task sits in branch C on the min(β,1)=1 side; the linear β−cap model
    // fixes each task's initial cap side globally).
    s.ev_unit.clear();
    s.ev_cap_up.clear();
    s.ev_cap_dn.clear();
    s.heap_a.clear();

    double sum_unit_a = 0.0;   // Σ a_i·min(β_A, 1) over branch-A tasks
    double sum_beta_a = 0.0;   // Σ a_i·β_A over beta-limited branch-A tasks
    std::int64_t area_cap_a = 0;    // branch-A tasks on the cap side
    std::int64_t area_b = 0;        // branch-B tasks
    std::int64_t area_unit_big = 0; // C tasks with min(β,1) == 1
    std::int64_t area_cap_c = 0;    // C tasks with min(β,cap) == cap
    // Linear β-side aggregates for branch C: Σ a_i·β = Σ a_i·u_i +
    // (Σ a_iC_i − λ·Σ a_iD_i)/D_k, one instance per cap. The a_i·C_i and
    // a_i·D_i sums hold integer values but live in doubles: exact below
    // 2^53 (every serving-realistic magnitude) and merely rounded beyond.
    double unit_au = 0.0;
    double unit_ac = 0.0;
    double unit_ad = 0.0;
    double cap_au = 0.0;
    double cap_ac = 0.0;
    double cap_ad = 0.0;

    for (std::size_t i = 0; i < n; ++i) {
      s.state[i] = kInC | kUnitBig;
      const std::int64_t ai = s.area[i];
      const double ai_d = d(ai);
      const double ui = s.util[i];
      const double ci_d = d(s.wcet[i]);
      const double di_d = d(s.deadline[i]);
      area_unit_big += ai;
      s.ev_unit.push_back(
          {(ci_d - (1.0 - ui) * dk_d) / di_d, static_cast<std::uint32_t>(i)});
      const double c0 = ui + ci_d / dk_d - 1.0;  // β_C − cap at λ = 0
      const double m = scale_d - di_d / dk_d;    // d(β_C − cap)/dλ
      if (m > 0.0) {
        cap_au += ai_d * ui;
        cap_ac += d(ai) * d(s.wcet[i]);
        cap_ad += d(ai) * d(s.deadline[i]);
        s.ev_cap_up.push_back({-c0 / m, static_cast<std::uint32_t>(i)});
      } else if (m < 0.0) {
        s.state[i] |= kCapCapped;
        area_cap_c += ai;
        s.ev_cap_dn.push_back({-c0 / m, static_cast<std::uint32_t>(i)});
      } else if (c0 > 0.0) {
        s.state[i] |= kCapCapped;
        area_cap_c += ai;
      } else {
        cap_au += ai_d * ui;
        cap_ac += d(ai) * d(s.wcet[i]);
        cap_ad += d(ai) * d(s.deadline[i]);
      }
    }
    const auto by_lam = [](const AnalysisScratch::Crossing& a,
                           const AnalysisScratch::Crossing& b) {
      return a.lam < b.lam;
    };
    std::sort(s.ev_unit.begin(), s.ev_unit.end(), by_lam);
    std::sort(s.ev_cap_up.begin(), s.ev_cap_up.end(), by_lam);
    std::sort(s.ev_cap_dn.begin(), s.ev_cap_dn.end(), by_lam);

    std::size_t pa = 0;  // A-entry pointer over order_u (exact)
    std::size_t pc = 0;  // C-departure pointer over order_vc (exact)
    std::size_t p1 = 0;  // ev_unit pointer
    std::size_t p2 = 0;  // ev_cap_up pointer
    std::size_t p3 = 0;  // ev_cap_dn pointer

    TaskDiagnostic diag;
    diag.task_index = k;
    // The theorem requires λ ≥ C_k/T_k; pool is sorted and exact.
    for (auto it = std::lower_bound(s.pool.begin(), s.pool.end(), uk_x);
         it != s.pool.end(); ++it) {
      const Rational& lambda = *it;
      const Rational lk_x = unit_scale ? lambda : lambda * lk_scale;
      // λ_k ≥ 1 leaves no slack bound, and λ only grows from here.
      if (!(lk_x < Rational(1))) break;
      const double lam_d = lambda.to_double();
      const double cap = 1.0 - lk_x.to_double();  // 1 − λ_k

      // (a) exact C departures: λ reached min(C_i/D_i, u_i).
      while (pc < n && !(s.vc_x[s.order_vc[pc]] > lambda)) {
        const std::uint32_t i = s.order_vc[pc++];
        const std::int64_t ai = s.area[i];
        if (s.state[i] & kUnitBig) {
          area_unit_big -= ai;
        } else {
          unit_au -= d(ai) * s.util[i];
          unit_ac -= d(ai) * d(s.wcet[i]);
          unit_ad -= d(ai) * d(s.deadline[i]);
        }
        if (s.state[i] & kCapCapped) {
          area_cap_c -= ai;
        } else {
          cap_au -= d(ai) * s.util[i];
          cap_ac -= d(ai) * d(s.wcet[i]);
          cap_ad -= d(ai) * d(s.deadline[i]);
        }
        s.state[i] &= static_cast<std::uint8_t>(~kInC);
        if (s.util_x[i] > lambda) {  // u_i > λ ∧ λ ≥ C_i/D_i: branch B
          s.state[i] |= kInB;
          area_b += ai;
        }
      }
      // (b) exact A entries: λ reached u_i.
      while (pa < n && !(s.util_x[s.order_u[pa]] > lambda)) {
        const std::uint32_t i = s.order_u[pa++];
        const std::int64_t ai = s.area[i];
        if (s.state[i] & kInB) {
          s.state[i] &= static_cast<std::uint8_t>(~kInB);
          area_b -= ai;
        }
        const double ui = s.util[i];
        const double alt =
            ui * (1.0 - d(s.deadline[i]) / dk_d) + d(s.wcet[i]) / dk_d;
        const double beta_a = std::max(ui, alt);
        sum_unit_a += d(ai) * std::min(beta_a, 1.0);
        if (beta_a <= cap) {
          sum_beta_a += d(ai) * beta_a;
          s.heap_a.push_back({beta_a, i});
          std::push_heap(s.heap_a.begin(), s.heap_a.end());
        } else {
          area_cap_a += ai;
        }
      }
      // (c) the falling cap overtakes the largest branch-A betas.
      while (!s.heap_a.empty() && s.heap_a.front().beta_a > cap) {
        const AnalysisScratch::HeapEntry top = s.heap_a.front();
        std::pop_heap(s.heap_a.begin(), s.heap_a.end());
        s.heap_a.pop_back();
        sum_beta_a -= d(s.area[top.task]) * top.beta_a;
        area_cap_a += s.area[top.task];
      }
      // (d) β_C falls through 1: big → linear side of min(β, 1).
      while (p1 < s.ev_unit.size() && s.ev_unit[p1].lam <= lam_d) {
        const std::uint32_t i = s.ev_unit[p1++].task;
        if ((s.state[i] & (kInC | kUnitBig)) == (kInC | kUnitBig)) {
          s.state[i] &= static_cast<std::uint8_t>(~kUnitBig);
          const std::int64_t ai = s.area[i];
          area_unit_big -= ai;
          unit_au += d(ai) * s.util[i];
          unit_ac += d(ai) * d(s.wcet[i]);
          unit_ad += d(ai) * d(s.deadline[i]);
        }
      }
      // (e) β_C − cap rises through 0: β → cap side of min(β, cap).
      while (p2 < s.ev_cap_up.size() && s.ev_cap_up[p2].lam <= lam_d) {
        const std::uint32_t i = s.ev_cap_up[p2++].task;
        if ((s.state[i] & (kInC | kCapCapped)) == kInC) {
          s.state[i] |= kCapCapped;
          const std::int64_t ai = s.area[i];
          cap_au -= d(ai) * s.util[i];
          cap_ac -= d(ai) * d(s.wcet[i]);
          cap_ad -= d(ai) * d(s.deadline[i]);
          area_cap_c += ai;
        }
      }
      // (f) β_C − cap falls through 0: cap → β side.
      while (p3 < s.ev_cap_dn.size() && s.ev_cap_dn[p3].lam <= lam_d) {
        const std::uint32_t i = s.ev_cap_dn[p3++].task;
        if ((s.state[i] & (kInC | kCapCapped)) == (kInC | kCapCapped)) {
          s.state[i] &= static_cast<std::uint8_t>(~kCapCapped);
          const std::int64_t ai = s.area[i];
          area_cap_c -= ai;
          cap_au += d(ai) * s.util[i];
          cap_ac += d(ai) * d(s.wcet[i]);
          cap_ad += d(ai) * d(s.deadline[i]);
        }
      }

      // ---- O(1) evaluation of both conditions at this candidate.
      const double beta_b = uk_d;  // branch B's shared β = C_k/T_k
      const double c_unit_lin =
          unit_au + (unit_ac - lam_d * unit_ad) / dk_d;
      const double c_cap_lin =
          cap_au + (cap_ac - lam_d * cap_ad) / dk_d;
      const double lhs_unit = sum_unit_a + d(area_b) * std::min(beta_b, 1.0) +
                              d(area_unit_big) + c_unit_lin;
      const double lhs_capped =
          sum_beta_a + d(area_cap_a) * cap + d(area_b) * std::min(beta_b, cap) +
          d(area_cap_c) * cap + c_cap_lin;
      const double rhs1 = abnd * cap;
      const double rhs2 = (abnd - amin) * cap + amin;

      const bool cond1 = math::lt(lhs_capped, rhs1);
      const bool cond2 = opt.non_strict_condition2
                             ? math::le(lhs_unit, rhs2)
                             : math::lt(lhs_unit, rhs2);
      diag.pass = cond1 || cond2;
      if (report != nullptr) {
        diag.lambda = lam_d;
        // On failure keep the *nearer* miss of the two conditions, so
        // --explain shows the inequality the taskset almost satisfied.
        const bool one =
            diag.pass ? cond1 : math::lt(lhs_capped - rhs1, lhs_unit - rhs2);
        diag.condition = diag.pass ? (one ? 1 : 2) : (one ? -1 : -2);
        diag.lhs = one ? lhs_capped : lhs_unit;
        diag.rhs = one ? rhs1 : rhs2;
      }
      if (diag.pass) break;
    }
    if (record(out, report, diag)) return out;
  }
  return conclude(out, report);
}

}  // namespace reconf::analysis::detail
