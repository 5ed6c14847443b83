#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"

namespace reconf::analysis {

/// One round of the SplitMix64 finalizer (common/rng.hpp) as a pure mixing
/// function: bijective on 64 bits, deterministic across platforms.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Hash of one task's analysis-relevant parameters (C, D, T, A). The name is
/// deliberately excluded: no schedulability test reads it, so two tasks that
/// differ only in name must produce identical verdicts — and identical keys.
[[nodiscard]] std::uint64_t task_fingerprint(const Task& t) noexcept;

/// Canonical 64-bit hash of a (taskset, device) analysis problem, the key of
/// the svc verdict cache. Canonical means: invariant under task reordering
/// (every test in this library is order-independent), invariant under task
/// renaming, and sensitive to every C/D/T/A, the task count, and A(H).
///
/// Reordering invariance comes from combining per-task fingerprints with the
/// commutative pair (sum, xor); collisions a single commutative accumulator
/// would admit (e.g. swapping fields between tasks) are broken by the
/// per-task SplitMix64 mixing.
[[nodiscard]] std::uint64_t canonical_hash(const TaskSet& ts,
                                           Device device) noexcept;

}  // namespace reconf::analysis
