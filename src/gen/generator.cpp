#include "gen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "gen/rng.hpp"

namespace reconf::gen {

GenProfile GenProfile::unconstrained(int num_tasks) {
  GenProfile p;
  p.num_tasks = num_tasks;
  return p;  // defaults are the paper's unconstrained setting
}

GenProfile GenProfile::spatially_heavy_time_light(int num_tasks) {
  GenProfile p;
  p.num_tasks = num_tasks;
  p.area_min = 50;
  p.area_max = 100;
  p.util_min = 0.05;
  p.util_max = 0.30;
  return p;
}

GenProfile GenProfile::spatially_light_time_heavy(int num_tasks) {
  GenProfile p;
  p.num_tasks = num_tasks;
  p.area_min = 1;
  p.area_max = 30;
  p.util_min = 0.50;
  p.util_max = 1.0;
  return p;
}

namespace {

/// Maximum WCET of task i: C ≤ min(D, T) keeps the task feasible alone.
Ticks wcet_cap(const Task& t) { return std::min(t.deadline, t.period); }

/// Per-task WCET bounds implied by the profile's utilization range.
/// Retargeting stays inside these so the class semantics survive: a
/// "temporally heavy" taskset (u in [0.5,1]) keeps every u >= ~0.5 no
/// matter what U_S target is requested — unreachable targets fail instead
/// of silently changing the distribution (see GenRequest in
/// gen/generator.hpp).
struct WcetBounds {
  Ticks lo = 1;
  Ticks hi = 1;
};

WcetBounds wcet_bounds(const Task& t, const GenProfile& p) {
  WcetBounds b;
  b.lo = std::max<Ticks>(
      1, static_cast<Ticks>(
             std::ceil(p.util_min * static_cast<double>(t.period) - 1e-9)));
  b.hi = std::min<Ticks>(
      wcet_cap(t),
      static_cast<Ticks>(
          std::floor(p.util_max * static_cast<double>(t.period) + 1e-9)));
  b.hi = std::max(b.hi, b.lo);  // degenerate ranges collapse to lo
  return b;
}

double system_util(const std::vector<Task>& tasks) {
  double us = 0.0;
  for (const Task& t : tasks) us += t.system_utilization();
  return us;
}

/// Rescales WCETs multiplicatively toward `target` U_S within the per-task
/// bounds, then fine-tunes by single-tick adjustments. Returns false when
/// the target is unreachable inside the profile's utilization range.
bool retarget(std::vector<Task>& tasks, const std::vector<WcetBounds>& bounds,
              double target, double tolerance) {
  RECONF_EXPECTS(target > 0);
  RECONF_EXPECTS(bounds.size() == tasks.size());

  for (int iter = 0; iter < 64; ++iter) {
    const double us = system_util(tasks);
    if (std::abs(us - target) <= tolerance) return true;
    const double factor = target / us;
    bool moved = false;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Task& t = tasks[i];
      const double scaled = static_cast<double>(t.wcet) * factor;
      const Ticks next =
          std::clamp<Ticks>(static_cast<Ticks>(std::llround(scaled)),
                            bounds[i].lo, bounds[i].hi);
      if (next != t.wcet) moved = true;
      t.wcet = next;
    }
    if (!moved) break;  // scaling saturated (bounds or single-tick floors)
  }

  // Greedy single-tick fine-tuning: walk the residual toward zero using the
  // task whose one-tick step (A_i/T_i) best fits the remaining error.
  for (int step = 0; step < 4096; ++step) {
    const double err = system_util(tasks) - target;
    if (std::abs(err) <= tolerance) return true;

    Task* best = nullptr;
    double best_fit = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Task& t = tasks[i];
      const double delta = static_cast<double>(t.area) /
                           static_cast<double>(t.period);
      const bool can_move =
          err > 0 ? t.wcet > bounds[i].lo : t.wcet < bounds[i].hi;
      if (!can_move) continue;
      // Prefer the step closest to (but ideally not overshooting) |err|.
      const double fit = std::abs(delta - std::min(std::abs(err), delta));
      if (delta <= std::abs(err) + tolerance && fit < best_fit) {
        best_fit = fit;
        best = &t;
      }
    }
    if (best == nullptr) return false;  // every step overshoots: unreachable
    best->wcet += err > 0 ? -1 : 1;
  }
  return std::abs(system_util(tasks) - target) <= tolerance;
}

}  // namespace

std::optional<TaskSet> generate(const GenRequest& request) {
  const GenProfile& p = request.profile;
  RECONF_EXPECTS(p.num_tasks > 0);
  RECONF_EXPECTS(p.area_min >= 1 && p.area_min <= p.area_max);
  if (p.period_choices.empty()) {
    RECONF_EXPECTS(p.period_min > 0 && p.period_min < p.period_max);
  } else {
    for (const Ticks t : p.period_choices) RECONF_EXPECTS(t >= 1);
  }
  RECONF_EXPECTS(p.util_min >= 0 && p.util_min <= p.util_max &&
                 p.util_max <= 1.0);
  RECONF_EXPECTS(p.deadline_ratio_min > 0 &&
                 p.deadline_ratio_min <= p.deadline_ratio_max);
  RECONF_EXPECTS(p.scale > 0);

  Xoshiro256ss rng(request.seed);
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(p.num_tasks));

  for (int i = 0; i < p.num_tasks; ++i) {
    Task t;
    if (!p.period_choices.empty()) {
      t.period = p.period_choices[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(p.period_choices.size()) - 1))];
    } else {
      const double period_units = rng.uniform(p.period_min, p.period_max);
      t.period = std::max<Ticks>(1, ticks_from_units(period_units, p.scale));
    }
    const double ratio =
        rng.uniform(p.deadline_ratio_min, p.deadline_ratio_max);
    t.deadline = std::clamp<Ticks>(
        static_cast<Ticks>(std::llround(ratio * static_cast<double>(t.period))),
        1, std::numeric_limits<Ticks>::max());
    t.area = static_cast<Area>(rng.uniform_int(p.area_min, p.area_max));
    const double u = rng.uniform(p.util_min, p.util_max);
    t.wcet = std::clamp<Ticks>(
        static_cast<Ticks>(std::llround(u * static_cast<double>(t.period))),
        1, wcet_cap(t));
    t.name = "t" + std::to_string(i + 1);
    tasks.push_back(std::move(t));
  }

  if (request.target_system_util) {
    std::vector<WcetBounds> bounds;
    bounds.reserve(tasks.size());
    for (const Task& t : tasks) bounds.push_back(wcet_bounds(t, p));
    if (!retarget(tasks, bounds, *request.target_system_util,
                  request.target_tolerance)) {
      return std::nullopt;
    }
  }

  TaskSet out{std::move(tasks)};
  RECONF_ENSURES(out.all_well_formed());
  return out;
}

std::optional<TaskSet> generate_with_retries(const GenRequest& request,
                                             int max_attempts) {
  RECONF_EXPECTS(max_attempts >= 1);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    GenRequest retry = request;
    retry.seed = derive_seed(request.seed, static_cast<std::uint64_t>(attempt));
    if (auto ts = generate(retry)) return ts;
  }
  return std::nullopt;
}

}  // namespace reconf::gen
