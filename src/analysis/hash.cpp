#include "analysis/hash.hpp"

#include "common/rng.hpp"

namespace reconf::analysis {

namespace {

/// Domain-separation salt so taskset hashes cannot collide with other users
/// of SplitMix64 streams (seed derivation uses index+1 offsets).
constexpr std::uint64_t kHashSalt = 0x7265636F6E662D31ull;  // "reconf-1"

}  // namespace

std::uint64_t mix64(std::uint64_t x) noexcept {
  return SplitMix64(x).next();
}

std::uint64_t task_fingerprint(const Task& t) noexcept {
  // Field order matters inside a task (C=2,D=3 must differ from C=3,D=2):
  // chain each field through the mixer instead of accumulating commutatively.
  std::uint64_t h = mix64(kHashSalt ^ static_cast<std::uint64_t>(t.wcet));
  h = mix64(h ^ static_cast<std::uint64_t>(t.deadline));
  h = mix64(h ^ static_cast<std::uint64_t>(t.period));
  h = mix64(h ^ static_cast<std::uint64_t>(t.area));
  return h;
}

std::uint64_t canonical_hash(const TaskSet& ts, Device device) noexcept {
  std::uint64_t sum = 0;
  std::uint64_t xored = 0;
  for (const Task& t : ts) {
    const std::uint64_t fp = task_fingerprint(t);
    sum += fp;    // commutative: order-independent by construction
    xored ^= fp;  // second commutative channel halves accidental collisions
  }
  std::uint64_t h = mix64(kHashSalt ^ static_cast<std::uint64_t>(device.width));
  h = mix64(h ^ static_cast<std::uint64_t>(ts.size()));
  h = mix64(h ^ sum);
  h = mix64(h ^ xored);
  return h;
}

}  // namespace reconf::analysis
