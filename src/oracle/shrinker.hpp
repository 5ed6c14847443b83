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

/// Delta-debugs a disagreement witness to a locally minimal repro through
/// the one minimizer (common/minimize.hpp): tasks are its units (one always
/// stays), C, D, T, A and the device width its fields, each floored at 1.
/// Two task-set moves join every round: dropping one task while sweeping
/// the device width over powers of two, and dividing every C/D/T by their
/// gcd. Every committed candidate satisfies `still_fails`; if the input
/// itself does not, it is returned unchanged after one evaluation.
[[nodiscard]] ShrinkOutcome shrink(const TaskSet& ts, Device device,
                                   const ShrinkPredicate& still_fails);

}  // namespace reconf::oracle
