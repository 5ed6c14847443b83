#include "analysis/detail/scratch.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace reconf::analysis::detail {

void AnalysisScratch::build(const TaskSet& ts) {
  n = ts.size();
  max_area = ts.max_area();
  min_area = ts.min_area();
  all_implicit = ts.all_implicit_deadline();
  all_constrained = ts.all_constrained_deadline();
  gn2_ready = false;

  wcet.resize(n);
  deadline.resize(n);
  period.resize(n);
  area.resize(n);
  util.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = ts[i];
    wcet[i] = t.wcet;
    deadline[i] = t.deadline;
    period[i] = t.period;
    area[i] = t.area;
    // Malformed tasks (non-positive T) are rejected by first_infeasible
    // before any kernel reads these; guard the division anyway.
    util[i] = static_cast<double>(t.wcet) /
              static_cast<double>(t.period > 0 ? t.period : 1);
  }
}

void AnalysisScratch::push(const Task& t) {
  wcet.push_back(t.wcet);
  deadline.push_back(t.deadline);
  period.push_back(t.period);
  area.push_back(t.area);
  // The same guarded division as build().
  util.push_back(static_cast<double>(t.wcet) /
                 static_cast<double>(t.period > 0 ? t.period : 1));
  fold(n++);
  gn2_ready = false;
}

void AnalysisScratch::pop() {
  RECONF_EXPECTS(n > 0);
  --n;
  wcet.pop_back();
  deadline.pop_back();
  period.pop_back();
  area.pop_back();
  util.pop_back();
  max_area = 0;
  min_area = 0;
  all_implicit = true;
  all_constrained = true;
  for (std::size_t i = 0; i < n; ++i) fold(i);
  gn2_ready = false;
}

void AnalysisScratch::reserve(std::size_t rows) {
  wcet.reserve(rows);
  deadline.reserve(rows);
  period.reserve(rows);
  area.reserve(rows);
  util.reserve(rows);
  pool.reserve(2 * rows);  // C/T, plus C/D where D > T
  util_x.reserve(rows);
  vc_x.reserve(rows);
  order_u.reserve(rows);
  order_vc.reserve(rows);
  ev_unit.reserve(rows);
  ev_cap_up.reserve(rows);
  ev_cap_dn.reserve(rows);
  heap_a.reserve(rows);
  state.reserve(rows);
}

void AnalysisScratch::fold(std::size_t i) noexcept {
  // TaskSet's rule: the first task's area seeds both bounds even when it is
  // malformed; only well-formed tasks move them or the deadline model.
  if (i == 0) {
    max_area = area[0];
    min_area = area[0];
  }
  if (wcet[i] <= 0 || deadline[i] <= 0 || period[i] <= 0 || area[i] <= 0) {
    return;
  }
  max_area = std::max(max_area, area[i]);
  min_area = std::min(min_area, area[i]);
  all_implicit = all_implicit && deadline[i] == period[i];
  all_constrained = all_constrained && deadline[i] <= period[i];
}

void AnalysisScratch::prepare_gn2() {
  if (gn2_ready) return;
  gn2_ready = true;

  util_x.resize(n);
  vc_x.resize(n);
  order_u.resize(n);
  order_vc.resize(n);
  state.resize(n);
  pool.clear();

  for (std::size_t i = 0; i < n; ++i) {
    // Same safe-denominator guard as util: values are only consulted for
    // feasible tasksets.
    const Ticks t = period[i] > 0 ? period[i] : 1;
    const Ticks d = deadline[i] > 0 ? deadline[i] : 1;
    util_x[i] = math::Rational(wcet[i], t);
    vc_x[i] = d > t ? math::Rational(wcet[i], d)  // C/D < C/T
                    : util_x[i];                  // min is C/T
    order_u[i] = static_cast<std::uint32_t>(i);
    order_vc[i] = static_cast<std::uint32_t>(i);

    pool.push_back(util_x[i]);
    if (d > t) pool.emplace_back(wcet[i], d);
  }

  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  // Ties break by task index — a stable sort's order, without its buffer —
  // which keeps the sweep deterministic.
  const auto by = [](const std::vector<math::Rational>& key) {
    return [&key](std::uint32_t a, std::uint32_t b) {
      const auto c = key[a] <=> key[b];
      return c != 0 ? c < 0 : a < b;
    };
  };
  std::sort(order_u.begin(), order_u.end(), by(util_x));
  std::sort(order_vc.begin(), order_vc.end(), by(vc_x));
}

std::ptrdiff_t AnalysisScratch::first_infeasible(
    Device device, const char** why) const noexcept {
  // The same per-task rule, in the same order, as basic_feasibility_issue,
  // so the kernels name the same first_failing_task and note.
  for (std::size_t i = 0; i < n; ++i) {
    if (const char* reason = task_infeasibility(wcet[i], deadline[i],
                                                period[i], area[i], device)) {
      if (why != nullptr) *why = reason;
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

AnalysisScratch& thread_scratch() {
  thread_local AnalysisScratch scratch;
  return scratch;
}

}  // namespace reconf::analysis::detail
