#include "oracle/shrinker.hpp"

#include <numeric>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/minimize.hpp"

namespace reconf::oracle {

namespace {

/// The case being minimized: task rows (the units) and their device.
struct Witness {
  std::vector<Task> tasks;
  Device device;
};

using Minimizer = minimize::Minimizer<Witness, Task>;

std::int64_t one(const auto&) { return 1; }

constexpr minimize::Field<Task> kTaskFields[] = {
    {[](const Task& t) -> std::int64_t { return t.wcet; },
     [](Task& t, std::int64_t v) { t.wcet = v; }, one},
    {[](const Task& t) -> std::int64_t { return t.deadline; },
     [](Task& t, std::int64_t v) { t.deadline = v; }, one},
    {[](const Task& t) -> std::int64_t { return t.period; },
     [](Task& t, std::int64_t v) { t.period = v; }, one},
    {[](const Task& t) -> std::int64_t { return t.area; },
     [](Task& t, std::int64_t v) { t.area = static_cast<Area>(v); }, one},
};

constexpr minimize::Field<Witness> kDeviceWidth[] = {
    {[](const Witness& w) -> std::int64_t { return w.device.width; },
     [](Witness& w, std::int64_t v) { w.device.width = static_cast<Area>(v); },
     one},
};

/// Compound move for witnesses pinned by capacity coupling (e.g. a
/// multiprocessor-style overload that stops reproducing when either the
/// task count or the width moves alone): drop one task *and* re-try the
/// device at geometrically swept widths in the same candidate.
bool drop_task_sweeping_device(Minimizer& m) {
  bool changed = false;
  for (std::size_t i = m.best().tasks.size();
       i-- > 0 && m.best().tasks.size() > 1 && !m.budget_spent();) {
    Witness candidate = m.best();
    candidate.tasks.erase(candidate.tasks.begin() +
                          static_cast<std::ptrdiff_t>(i));
    for (Area w = 1; w < m.best().device.width && !m.budget_spent(); w *= 2) {
      candidate.device = Device{w};
      if (m.try_commit(candidate)) {
        changed = true;
        i = m.best().tasks.size();  // restart the sweep on the smaller witness
        break;
      }
    }
  }
  return changed;
}

/// Divides every C/D/T by their collective gcd — pure time rescaling that
/// both the analysis (rational comparisons) and the simulation (integer
/// event arithmetic) are invariant under, verified by the predicate like
/// every other step.
bool rescale_time(Minimizer& m) {
  Ticks g = 0;
  for (const Task& t : m.best().tasks) {
    g = std::gcd(g, std::gcd(t.wcet, std::gcd(t.deadline, t.period)));
  }
  if (g <= 1) return false;
  Witness candidate = m.best();
  for (Task& t : candidate.tasks) {
    t.wcet /= g;
    t.deadline /= g;
    t.period /= g;
  }
  return m.try_commit(std::move(candidate));
}

constexpr Minimizer::Move kMoves[] = {drop_task_sweeping_device,
                                      rescale_time};

}  // namespace

ShrinkOutcome shrink(const TaskSet& ts, Device device,
                     const ShrinkPredicate& still_fails) {
  RECONF_EXPECTS(!ts.empty());
  RECONF_EXPECTS(device.valid());
  // At least one task stays: an empty set witnesses nothing.
  static constexpr Minimizer::Shape kShape{&Witness::tasks, 1, kTaskFields,
                                           kDeviceWidth, kMoves};
  minimize::Outcome<Witness> out = Minimizer::run(
      kShape, {std::vector<Task>(ts.begin(), ts.end()), device},
      [&](const Witness& w) {
        return still_fails(TaskSet{w.tasks}, w.device);
      });
  return {TaskSet{std::move(out.best.tasks)}, out.best.device, out.evals,
          out.hit_eval_budget};
}

}  // namespace reconf::oracle
