#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::oracle {

/// True when the candidate still reproduces the disagreement being
/// minimized. Must be deterministic (the shrinker revisits equal candidates
/// and assumes equal answers); the fuzz driver builds these from a fixed
/// analyzer lineup plus a fixed-seed oracle probe.
using ShrinkPredicate = std::function<bool(const TaskSet&, Device)>;

struct ShrinkOutcome {
  TaskSet taskset;
  Device device{};
  std::uint64_t evals = 0;        ///< predicate evaluations spent
  bool hit_eval_budget = false;   ///< stopped by the budget, not a fixpoint
};

/// Delta-debugs a disagreement witness to a locally minimal repro:
/// greedy task removal, then per-field parameter bisection (WCET, deadline,
/// period, area — each toward 1), device-width bisection, and a whole-set
/// time rescale (dividing every C/D/T by their gcd), looped to fixpoint or
/// at most 6 rounds, within 50,000 predicate evaluations. Every committed
/// candidate satisfies `still_fails`; if the input itself does not, it is
/// returned unchanged. Monotonicity is not assumed — a candidate that stops
/// reproducing is simply not committed, so the result is minimal only
/// locally, which is what a readable repro needs.
[[nodiscard]] ShrinkOutcome shrink(const TaskSet& ts, Device device,
                                   const ShrinkPredicate& still_fails);

}  // namespace reconf::oracle
