#pragma once

// Structure-of-arrays evaluation substrate for the kernels
// (detail/kernels.hpp), the floating-point evaluation of Theorems 1–3
// behind both dp_test/gn1_test/gn2_test and AnalysisEngine::decide. One
// AnalysisScratch holds:
//
//  * a contiguous SoA mirror of the bound taskset — wcet[]/deadline[]/
//    period[]/area[] plus the precomputed double utilizations the formulas
//    read — so the kernels stream over cache-dense arrays instead of
//    64-byte Task structs with std::string names;
//  * the GN2 section: the exact per-task keys C/T and min(C/D, C/T), the
//    global task orders by each, and the λ-candidate pool with each key's
//    position in it, which the incremental λ-sweep advances over;
//  * reusable per-k working buffers (crossing-event arrays, the branch-A
//    cap heap, per-task state bytes).
//
// All storage is capacity-reused: build() only allocates when the taskset
// outgrows every previous one seen by this scratch, so a warmed-up arena
// evaluates verdicts with zero heap allocation. Use thread_scratch() for
// the per-thread arena AnalysisEngine::decide(ts, device) binds and shares
// across analyzers and across batch items; the report entry points bind a
// scratch of their own. A scratch is not thread-safe.
//
// A scratch can also stay bound across verdicts: svc::AdmissionSession
// keeps its admitted rows in one, push()es each candidate's row, decides,
// and pop()s it again on rejection. The GN2 keys derived from the kept rows
// stay with them: the GN2 section holds the keys of a prefix of the rows
// (gn2_rows), so a verdict that needs GN2 inserts only the rows added since
// — one or two reductions and O(n) moves each — and a pop takes the popped
// row's keys out again. Only build() starts over.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "math/rational.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis::detail {

struct AnalysisScratch {
  // ------------------------------------------------ SoA taskset mirror ----
  std::size_t n = 0;
  Area max_area = 0;
  Area min_area = 0;
  bool all_implicit = true;
  bool all_constrained = true;
  std::vector<Ticks> wcet;
  std::vector<Ticks> deadline;
  std::vector<Ticks> period;
  std::vector<Area> area;
  std::vector<double> util;  ///< C_i/T_i, one double division

  // ------------------------------------- GN2 keys, orders and the pool ----
  // Filled on demand by prepare_gn2() — the exact reductions cost more than
  // a whole DP/GN1 pass, and a trio decide() that DP settles never needs
  // them. Rows [0, gn2_rows) are in the section; the arrays below are
  // valid for exactly those rows.
  std::size_t gn2_rows = 0;
  /// Sorted, deduplicated β_λ discontinuities {C_i/T_i} ∪ {C_i/D_i : D_i>T_i}.
  std::vector<math::Rational> pool;
  std::vector<double> pool_d;            ///< pool[j].to_double()
  /// How many of the rows' keys (C/T, and C/D where D > T) equal pool[j];
  /// an entry leaves the pool with its last key.
  std::vector<std::uint32_t> pool_refs;
  std::vector<math::Rational> util_x;  ///< C_i/T_i exact, per task
  std::vector<math::Rational> vc_x;    ///< min(C_i/D_i, C_i/T_i) exact
  /// Pool positions of util_x[i] and vc_x[i]: both are pool entries, so
  /// comparing a key with the λ at pool position j is comparing positions.
  std::vector<std::uint32_t> pos_u;
  std::vector<std::uint32_t> pos_vc;
  std::vector<std::uint32_t> order_u;  ///< task indices by util_x ascending
  std::vector<std::uint32_t> order_vc; ///< task indices by vc_x ascending

  // ------------------------------------------ per-k sweep work buffers ----
  /// A real-valued λ at which one task's piecewise-linear contribution
  /// changes its min() side; sorted per k and consumed by a monotone pointer.
  struct Crossing {
    double lam = 0.0;
    std::uint32_t task = 0;
  };
  std::vector<Crossing> ev_unit;    ///< β_C crosses 1 (big → linear side)
  std::vector<Crossing> ev_cap_up;  ///< β_C − cap ascending (β → cap side)
  std::vector<Crossing> ev_cap_dn;  ///< β_C − cap descending (cap → β side)
  /// Max-heap (by betaA) of beta-limited branch-A tasks, popped as the cap
  /// 1 − λ_k falls below their constant β.
  struct HeapEntry {
    double beta_a = 0.0;
    std::uint32_t task = 0;
    friend bool operator<(const HeapEntry& a, const HeapEntry& b) noexcept {
      return a.beta_a < b.beta_a;
    }
  };
  std::vector<HeapEntry> heap_a;
  std::vector<std::uint8_t> state;  ///< per-task sweep state bits

  /// Rebuilds the SoA mirror for `ts`, reusing capacity; the summary
  /// (areas, deadline model) is the TaskSet's own. Empties the GN2 section
  /// (refilled on demand by prepare_gn2).
  void build(const TaskSet& ts);

  /// Appends the row (C, D, T, A) of `t` — names are not mirrored — and
  /// folds it into the summary by TaskSet's rule, so pushing n tasks binds
  /// what build() of those n tasks binds. The GN2 section is left as it
  /// is: prepare_gn2() adds the new row's keys when a verdict needs them.
  void push(const Task& t);
  /// Drops the last row, takes its keys out of the GN2 section and refolds
  /// the summary over the rows left.
  void pop();
  /// Reserves every buffer for `rows` rows, so a fresh scratch binds and
  /// evaluates sets up to that size without growing.
  void reserve(std::size_t rows);

  /// Brings the GN2 section up to every bound row: an empty section is
  /// built by sorting, rows added since are inserted one at a time. Either
  /// way the section equals what sorting all n rows gives. Called by
  /// gn2_fast.
  void prepare_gn2();

  /// First task index violating the basic feasibility prerequisites every
  /// test rejects on (same order as basic_feasibility_issue), or −1. When
  /// `why` is given it receives the violation's reason.
  [[nodiscard]] std::ptrdiff_t first_infeasible(
      Device device, const char** why = nullptr) const noexcept;

 private:
  /// Folds row `i` into max_area/min_area/all_implicit/all_constrained.
  void fold(std::size_t i) noexcept;
  /// Adds the keys of row `gn2_rows` to the GN2 section.
  void insert_gn2_row();
  /// Takes the keys of row `gn2_rows - 1` out of the GN2 section.
  void erase_gn2_row();
  /// Adds one key to the pool; returns its position.
  std::uint32_t pool_insert(const math::Rational& key);
  /// Removes one key held at pool position `at`.
  void pool_erase(std::uint32_t at);
};

/// The calling thread's scratch arena. The engine fast path binds it to the
/// taskset under analysis once per verdict and shares it across analyzers;
/// batch workers each get their own, so capacity stays warm across items.
[[nodiscard]] AnalysisScratch& thread_scratch();

}  // namespace reconf::analysis::detail
