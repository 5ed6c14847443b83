#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

/// The one delta-debugger. A failing case (a task set and its device, a
/// fault plan) is cut down to a locally minimal witness: the minimizer
/// drops units and bisects integer fields, and keeps a candidate only when
/// the caller's predicate confirms that it still fails. The predicate need
/// not be monotone; a candidate that stops failing is simply not kept, so
/// a non-monotone predicate costs minimality, never validity.
namespace reconf::minimize {

/// Sweeps of every pass before the minimizer gives up on a fixpoint.
inline constexpr int kRounds = 6;
/// Hard cap on predicate evaluations: each can cost a simulation or a whole
/// runtime run.
inline constexpr std::uint64_t kEvalBudget = 50000;

/// An integer the minimizer lowers by bisection, read and written on an
/// `Of` (one unit, or the whole case) and never taken below `floor` of it.
/// A value already at or below its floor is left alone, which is how a
/// unit opts out of a field its kind does not carry.
template <class Of>
struct Field {
  std::int64_t (*get)(const Of&);
  void (*set)(Of&, std::int64_t);
  std::int64_t (*floor)(const Of&);
};

template <class Case>
struct Outcome {
  Case best;                      ///< the input itself if it did not fail
  std::uint64_t evals = 0;        ///< predicate evaluations spent
  bool hit_eval_budget = false;   ///< stopped by the budget, not a fixpoint
};

/// Minimizes a `Case` made of removable `Unit`s. Each round drops runs of
/// units (halves, quarters, … single units), then any two units together,
/// then runs the caller's own moves (before bisection leaves the case no
/// slack), then bisects every unit field and every case field to its floor.
/// Rounds repeat until one changes nothing, for at most kRounds, and stop
/// once kEvalBudget evaluations are spent. A result the budget did not stop
/// is 1-minimal for a monotone predicate (one under which a case that
/// passes keeps passing as units go and fields drop) and no moves: dropping
/// any one unit above `min_units`, or lowering any field above its floor by
/// one, makes it pass.
template <class Case, class Unit>
class Minimizer {
 public:
  /// True while the candidate still reproduces the failure. Must be
  /// deterministic: equal candidates are assumed to get equal answers.
  using Predicate = std::function<bool(const Case&)>;
  /// A caller's own move: proposes candidates through try_commit and
  /// returns whether one was committed.
  using Move = bool (*)(Minimizer&);

  struct Shape {
    std::vector<Unit> Case::* units;
    std::size_t min_units;  ///< removal never leaves fewer units
    std::span<const Field<Unit>> unit_fields;
    std::span<const Field<Case>> case_fields;
    std::span<const Move> moves;
  };

  [[nodiscard]] static Outcome<Case> run(const Shape& shape, Case start,
                                         const Predicate& still_fails) {
    Minimizer m(shape, std::move(start), still_fails);
    ++m.evals_;
    if (!still_fails(m.best_)) return {std::move(m.best_), m.evals_, false};
    for (int round = 0; round < kRounds && !m.budget_spent(); ++round) {
      bool changed = m.remove_runs();
      changed |= m.remove_pairs();
      for (const Move move : shape.moves) changed |= move(m);
      changed |= m.lower_fields();
      if (!changed) break;
    }
    return {std::move(m.best_), m.evals_, m.budget_spent()};
  }

  [[nodiscard]] const Case& best() const noexcept { return best_; }

  [[nodiscard]] bool budget_spent() const noexcept {
    return evals_ >= kEvalBudget;
  }

  /// Evaluates `candidate`, unless the budget is spent, and makes it the
  /// best case when it still fails.
  bool try_commit(Case candidate) {
    if (budget_spent()) return false;
    ++evals_;
    if (!still_fails_(candidate)) return false;
    best_ = std::move(candidate);
    return true;
  }

 private:
  Minimizer(const Shape& shape, Case start, const Predicate& still_fails)
      : shape_(shape), best_(std::move(start)), still_fails_(still_fails) {}

  std::vector<Unit>& units(Case& c) const { return c.*shape_.units; }
  [[nodiscard]] std::size_t size() const {
    return (best_.*shape_.units).size();
  }

  /// Drops contiguous runs of halving length down to single units; after a
  /// committed drop the same position names the next run.
  bool remove_runs() {
    bool changed = false;
    for (std::size_t len = std::max<std::size_t>(size() / 2, 1); len > 0;
         len /= 2) {
      for (std::size_t lo = 0; lo + len <= size() &&
                               size() - len >= shape_.min_units &&
                               !budget_spent();) {
        Case candidate = best_;
        std::vector<Unit>& u = units(candidate);
        const auto first = u.begin() + static_cast<std::ptrdiff_t>(lo);
        u.erase(first, first + static_cast<std::ptrdiff_t>(len));
        if (try_commit(std::move(candidate))) {
          changed = true;
        } else {
          ++lo;
        }
      }
    }
    return changed;
  }

  /// Drops any two units together. This unsticks witnesses that a
  /// count-coupled property pins (a size-parity bug, matched pairs):
  /// dropping any one unit breaks them, dropping two can keep them.
  bool remove_pairs() {
    bool changed = false;
    for (std::size_t i = 0;
         i + 1 < size() && size() >= shape_.min_units + 2 && !budget_spent();) {
      bool committed = false;
      for (std::size_t j = i + 1; j < size() && !committed && !budget_spent();
           ++j) {
        Case candidate = best_;
        std::vector<Unit>& u = units(candidate);
        u.erase(u.begin() + static_cast<std::ptrdiff_t>(j));
        u.erase(u.begin() + static_cast<std::ptrdiff_t>(i));
        committed = try_commit(std::move(candidate));
      }
      changed |= committed;
      if (!committed) ++i;
    }
    return changed;
  }

  bool lower_fields() {
    bool changed = false;
    for (std::size_t i = 0; i < size(); ++i) {
      for (const Field<Unit>& f : shape_.unit_fields) {
        const Unit& unit = units(best_)[i];
        const auto set = [&](Case& c, std::int64_t v) {
          f.set(units(c)[i], v);
        };
        changed |= lower(f.get(unit), f.floor(unit), set);
      }
    }
    for (const Field<Case>& f : shape_.case_fields) {
      changed |= lower(f.get(best_), f.floor(best_),
                       [&](Case& c, std::int64_t v) { f.set(c, v); });
    }
    return changed;
  }

  /// Bisects one integer of the best case from `value` down toward `floor`
  /// (the smallest value not yet known to stop failing): a confirmed probe
  /// is committed at once, a refuted one raises the floor past it.
  template <class Set>
  bool lower(std::int64_t value, std::int64_t floor, const Set& set) {
    bool changed = false;
    while (value > floor && !budget_spent()) {
      const std::int64_t mid = floor + (value - floor) / 2;
      Case candidate = best_;
      set(candidate, mid);
      if (try_commit(std::move(candidate))) {
        value = mid;
        changed = true;
      } else {
        floor = mid + 1;
      }
    }
    return changed;
  }

  const Shape& shape_;
  Case best_;
  const Predicate& still_fails_;
  std::uint64_t evals_ = 0;
};

}  // namespace reconf::minimize
