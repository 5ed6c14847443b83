#include "analysis/detail/scratch.hpp"

#include <algorithm>

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
  // Stable sorts keep ties in task order, making the sweep deterministic.
  std::stable_sort(order_u.begin(), order_u.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return util_x[a] < util_x[b];
                   });
  std::stable_sort(order_vc.begin(), order_vc.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return vc_x[a] < vc_x[b];
                   });
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
