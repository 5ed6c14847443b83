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
//  * the GN2 λ-candidate pool and the exact global task orders (by C/T and
//    by min(C/D, C/T)) the incremental λ-sweep advances over;
//  * reusable per-k working buffers (crossing-event arrays, the branch-A
//    cap heap, per-task state bytes).
//
// All storage is capacity-reused: build() only allocates when the taskset
// outgrows every previous one seen by this scratch, so a warmed-up arena
// evaluates verdicts with zero heap allocation. Use thread_scratch() for
// the per-thread arena AnalysisEngine::decide(ts, device) binds and shares
// across analyzers and across batch items; the report entry points bind a
// scratch of their own. A scratch can also stay bound across verdicts:
// svc::AdmissionSession keeps its admitted rows in one, push()es each
// candidate's row, decides, and pop()s it again on rejection. A scratch is
// not thread-safe.

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

  // --------------------------------------- GN2 pool and exact orders ----
  // Built lazily by prepare_gn2() — the exact-rational sorts cost more than
  // a whole DP/GN1 pass, and a trio decide() that DP settles never needs
  // them.
  bool gn2_ready = false;
  /// Sorted, deduplicated β_λ discontinuities {C_i/T_i} ∪ {C_i/D_i : D_i>T_i}.
  std::vector<math::Rational> pool;
  std::vector<math::Rational> util_x;  ///< C_i/T_i exact, per task
  std::vector<math::Rational> vc_x;    ///< min(C_i/D_i, C_i/T_i) exact
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
  /// (areas, deadline model) is the TaskSet's own. Invalidates the GN2
  /// section (rebuilt on demand by prepare_gn2).
  void build(const TaskSet& ts);

  /// Appends the row (C, D, T, A) of `t` — names are not mirrored — and
  /// folds it into the summary by TaskSet's rule, so pushing n tasks binds
  /// what build() of those n tasks binds. Invalidates the GN2 section.
  void push(const Task& t);
  /// Drops the last row and refolds the summary over the rows left.
  /// Invalidates the GN2 section.
  void pop();
  /// Reserves every buffer for `rows` rows, so a fresh scratch binds and
  /// evaluates sets up to that size without growing.
  void reserve(std::size_t rows);

  /// Builds the GN2 candidate pool and exact orders for the bound taskset.
  /// Idempotent per build(); called by gn2_fast.
  void prepare_gn2();

  /// First task index violating the basic feasibility prerequisites every
  /// test rejects on (same order as basic_feasibility_issue), or −1. When
  /// `why` is given it receives the violation's reason.
  [[nodiscard]] std::ptrdiff_t first_infeasible(
      Device device, const char** why = nullptr) const noexcept;

 private:
  /// Folds row `i` into max_area/min_area/all_implicit/all_constrained.
  void fold(std::size_t i) noexcept;
};

/// The calling thread's scratch arena. The engine fast path binds it to the
/// taskset under analysis once per verdict and shares it across analyzers;
/// batch workers each get their own, so capacity stays warm across items.
[[nodiscard]] AnalysisScratch& thread_scratch();

}  // namespace reconf::analysis::detail
