#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::oracle {

/// Adversarial taskset families for the differential oracle. Each family
/// targets a regime where a sufficient test is most likely to be wrong —
/// either unsound (the bug class the oracle exists to catch) or needlessly
/// pessimistic (the trend ORACLE_stats.json tracks):
///
///   kUnconstrained    paper Section 6 baseline distribution, U_S swept
///                     across the full acceptance cliff
///   kNearBoundary     U_S pushed into (0.90, 1.0)·A(H) — acceptance
///                     decisions live within rounding distance of the bound
///   kHarmonic         periods on a base·2^k ladder: tiny exact hyperperiods,
///                     so the simulation oracle is *exact* for sync release
///   kCoprime          pairwise co-prime periods: hyperperiods explode, the
///                     horizon cap engages, and λ-candidate grids densify
///   kZeroLaxity       a slice of tasks with D = C (zero laxity): every
///                     accepted set must start those jobs immediately
///   kTightDeadline    constrained deadlines biased hard toward C — the
///                     degenerate D ≪ T corner of the constrained classes
///   kHeavyTailArbitrary  arbitrary deadlines up to 4T with heavy-tailed
///                     per-task utilizations (few hogs, many mice)
///   kReconfHeavy      WCETs dominated by an area-proportional component —
///                     the shape of reconfiguration-overhead-dominated sets
///                     (Section 1 discussion), wide tasks, short real work
///   kUnitArea         every area = 1 on a narrow device (2..8 columns): the
///                     multiprocessor special case, so the mp-* cross-check
///                     analyzers are adjudicated on applicable inputs
///   kRuntimeMiss      harvested from the online runtime: a reconf-heavy
///                     scenario is replayed without prefetch and the set of
///                     tasks live at the earliest deadline miss becomes the
///                     fuzz input — tasksets the admission gate accepted yet
///                     an execution actually missed with, i.e. exactly the
///                     boundary where an unsound analyzer would be caught
enum class FuzzFamily {
  kUnconstrained,
  kNearBoundary,
  kHarmonic,
  kCoprime,
  kZeroLaxity,
  kTightDeadline,
  kHeavyTailArbitrary,
  kReconfHeavy,
  kUnitArea,
  kRuntimeMiss,
};

[[nodiscard]] const char* to_string(FuzzFamily family) noexcept;
[[nodiscard]] std::optional<FuzzFamily> family_from_string(
    std::string_view name) noexcept;
[[nodiscard]] const std::vector<FuzzFamily>& all_families();

struct FamilyRequest {
  FuzzFamily family = FuzzFamily::kUnconstrained;
  int num_tasks = 8;
  /// Device offered to the family; kUnitArea narrows it to a processor
  /// count, everything else uses it as-is.
  Device device{100};
  std::uint64_t seed = 0;
};

/// One generated fuzz input: the taskset plus the device it must be
/// adjudicated on (families may narrow the offered device).
struct FuzzCase {
  TaskSet taskset;
  Device device{};
};

/// Deterministically generates one taskset of the requested family: a pure
/// function of `request` on every platform (integer/IEEE-754 arithmetic
/// only — see common/rng.hpp). Every produced task is individually feasible
/// (C ≤ min(D, T), A ≤ width), so rejections are always analysis decisions
/// rather than trivial input garbage.
[[nodiscard]] FuzzCase make_fuzz_case(const FamilyRequest& request);

}  // namespace reconf::oracle
