#include "analysis/detail/scratch.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace reconf::analysis::detail {

namespace {

/// The safe-denominator guard every key reads through: values are only
/// consulted for feasible tasksets, whose ticks are positive.
[[nodiscard]] Ticks guarded(Ticks v) noexcept { return v > 0 ? v : 1; }

}  // namespace

void AnalysisScratch::build(const TaskSet& ts) {
  n = ts.size();
  max_area = ts.max_area();
  min_area = ts.min_area();
  all_implicit = ts.all_implicit_deadline();
  all_constrained = ts.all_constrained_deadline();
  gn2_rows = 0;

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
              static_cast<double>(guarded(t.period));
  }
}

void AnalysisScratch::push(const Task& t) {
  wcet.push_back(t.wcet);
  deadline.push_back(t.deadline);
  period.push_back(t.period);
  area.push_back(t.area);
  // The same guarded division as build().
  util.push_back(static_cast<double>(t.wcet) /
                 static_cast<double>(guarded(t.period)));
  fold(n++);
}

void AnalysisScratch::pop() {
  RECONF_EXPECTS(n > 0);
  if (gn2_rows == n) erase_gn2_row();
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
}

void AnalysisScratch::reserve(std::size_t rows) {
  wcet.reserve(rows);
  deadline.reserve(rows);
  period.reserve(rows);
  area.reserve(rows);
  util.reserve(rows);
  pool.reserve(2 * rows);  // C/T, plus C/D where D > T
  pool_d.reserve(2 * rows);
  pool_refs.reserve(2 * rows);
  util_x.reserve(rows);
  vc_x.reserve(rows);
  pos_u.reserve(rows);
  pos_vc.reserve(rows);
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
  state.resize(n);
  // An empty section — n == 0 included — is sorted afresh, which also
  // drops whatever rows an earlier build() left in the arrays.
  if (gn2_rows > 0) {
    while (gn2_rows < n) insert_gn2_row();
    return;
  }

  util_x.resize(n);
  vc_x.resize(n);
  pos_u.resize(n);
  pos_vc.resize(n);
  order_u.resize(n);
  order_vc.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Ticks t = guarded(period[i]);
    const Ticks d = guarded(deadline[i]);
    util_x[i] = math::Rational(wcet[i], t);
    vc_x[i] = d > t ? math::Rational(wcet[i], d)  // C/D < C/T
                    : util_x[i];                  // min is C/T
    order_u[i] = static_cast<std::uint32_t>(i);
    order_vc[i] = static_cast<std::uint32_t>(i);
  }
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

  // The pool is the merge of the two sorted key lists — every C/T, and the
  // C/D of the rows with D > T — with equal keys folded into one entry.
  pool.clear();
  pool_d.clear();
  pool_refs.clear();
  const auto two_keys = [this](std::uint32_t i) {
    return guarded(deadline[i]) > guarded(period[i]);
  };
  const auto add = [this](const math::Rational& key) {
    if (pool.empty() || !(pool.back() == key)) {
      pool.push_back(key);
      pool_d.push_back(key.to_double());
      pool_refs.push_back(0);
    }
    ++pool_refs.back();
    return static_cast<std::uint32_t>(pool.size() - 1);
  };
  std::size_t a = 0;
  std::size_t b = 0;
  for (;;) {
    while (b < n && !two_keys(order_vc[b])) ++b;
    if (a == n && b == n) break;
    if (b == n || (a < n && util_x[order_u[a]] < vc_x[order_vc[b]])) {
      const std::uint32_t i = order_u[a++];
      pos_u[i] = add(util_x[i]);
    } else {
      const std::uint32_t i = order_vc[b++];
      pos_vc[i] = add(vc_x[i]);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!two_keys(i)) pos_vc[i] = pos_u[i];
  }
  gn2_rows = n;
}

std::uint32_t AnalysisScratch::pool_insert(const math::Rational& key) {
  const auto it = std::lower_bound(pool.begin(), pool.end(), key);
  const auto at = static_cast<std::uint32_t>(it - pool.begin());
  if (it != pool.end() && *it == key) {
    ++pool_refs[at];
    return at;
  }
  pool.insert(it, key);
  pool_d.insert(pool_d.begin() + at, key.to_double());
  pool_refs.insert(pool_refs.begin() + at, 1);
  for (std::size_t r = 0; r < gn2_rows; ++r) {
    if (pos_u[r] >= at) ++pos_u[r];
    if (pos_vc[r] >= at) ++pos_vc[r];
  }
  return at;
}

void AnalysisScratch::pool_erase(std::uint32_t at) {
  if (--pool_refs[at] > 0) return;
  pool.erase(pool.begin() + at);
  pool_d.erase(pool_d.begin() + at);
  pool_refs.erase(pool_refs.begin() + at);
  for (std::size_t r = 0; r < gn2_rows; ++r) {
    if (pos_u[r] > at) --pos_u[r];
    if (pos_vc[r] > at) --pos_vc[r];
  }
}

void AnalysisScratch::insert_gn2_row() {
  const auto i = static_cast<std::uint32_t>(gn2_rows);
  const Ticks t = guarded(period[i]);
  const Ticks d = guarded(deadline[i]);
  util_x.push_back(math::Rational(wcet[i], t));
  vc_x.push_back(d > t ? math::Rational(wcet[i], d) : util_x[i]);

  // The pool first (it renumbers the rows already in), then this row.
  std::uint32_t pu = pool_insert(util_x[i]);
  std::uint32_t pv = pu;
  if (d > t) {
    const std::size_t before = pool.size();
    pv = pool_insert(vc_x[i]);
    // C/D <= C/T: a new entry for it lands at or before C/T's.
    if (pool.size() != before && pv <= pu) ++pu;
  }
  pos_u.push_back(pu);
  pos_vc.push_back(pv);

  // Row i has the largest index, so it goes after every equal key: the
  // tie-break the sorted build uses. Keys compare as pool positions.
  const auto after = [](const std::vector<std::uint32_t>& pos) {
    return [&pos](std::uint32_t key_pos, std::uint32_t row) {
      return key_pos < pos[row];
    };
  };
  order_u.insert(std::upper_bound(order_u.begin(), order_u.end(), pu,
                                  after(pos_u)),
                 i);
  order_vc.insert(std::upper_bound(order_vc.begin(), order_vc.end(), pv,
                                   after(pos_vc)),
                  i);
  ++gn2_rows;
}

void AnalysisScratch::erase_gn2_row() {
  const auto i = static_cast<std::uint32_t>(gn2_rows - 1);
  const std::uint32_t pu = pos_u[i];
  const std::uint32_t pv = pos_vc[i];
  // The last row is the last of its equal keys in both orders.
  const auto last_of = [](std::vector<std::uint32_t>& order,
                          const std::vector<std::uint32_t>& pos,
                          std::uint32_t key_pos) {
    const auto it = std::upper_bound(
        order.begin(), order.end(), key_pos,
        [&pos](std::uint32_t k, std::uint32_t row) { return k < pos[row]; });
    RECONF_ASSERT(it != order.begin());
    return it - 1;
  };
  const auto u_at = last_of(order_u, pos_u, pu);
  RECONF_ASSERT(*u_at == i);
  order_u.erase(u_at);
  const auto vc_at = last_of(order_vc, pos_vc, pv);
  RECONF_ASSERT(*vc_at == i);
  order_vc.erase(vc_at);

  --gn2_rows;
  // C/T's position is the larger one: drop it first, so C/D's stays put.
  pool_erase(pu);
  if (guarded(deadline[i]) > guarded(period[i])) pool_erase(pv);
  util_x.pop_back();
  vc_x.pop_back();
  pos_u.pop_back();
  pos_vc.pop_back();
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
