#include "rt/prefetch.hpp"

namespace reconf::rt {

const char* to_string(PrefetchKind kind) noexcept {
  switch (kind) {
    case PrefetchKind::kNone:
      return "none";
    case PrefetchKind::kStatic:
      return "static";
    case PrefetchKind::kHybrid:
      return "hybrid";
  }
  return "?";
}

std::optional<PrefetchKind> prefetch_kind_from(std::string_view name) noexcept {
  if (name == "none") return PrefetchKind::kNone;
  if (name == "static") return PrefetchKind::kStatic;
  if (name == "hybrid") return PrefetchKind::kHybrid;
  return std::nullopt;
}

std::optional<std::size_t> StaticLookaheadPolicy::choose(
    const PrefetchContext& ctx) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
    const PrefetchCandidate& c = ctx.candidates[i];
    if (c.next_release - ctx.now > kWindow) continue;
    if (!best) {
      best = i;
      continue;
    }
    const PrefetchCandidate& b = ctx.candidates[*best];
    // Earliest release first; ties go to the bigger load (more to hide),
    // then the lower slot for determinism.
    if (c.next_release != b.next_release) {
      if (c.next_release < b.next_release) best = i;
    } else if (c.load_ticks != b.load_ticks) {
      if (c.load_ticks > b.load_ticks) best = i;
    } else if (c.slot < b.slot) {
      best = i;
    }
  }
  return best;
}

std::optional<std::size_t> HybridPrefetchPolicy::choose(
    const PrefetchContext& ctx) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
    const PrefetchCandidate& c = ctx.candidates[i];
    if (!best) {
      best = i;
      continue;
    }
    const PrefetchCandidate& b = ctx.candidates[*best];
    // EDF on the loads: earliest load-start deadline first; ties by lowest
    // job laxity, then bigger load, then slot for determinism.
    if (c.load_deadline() != b.load_deadline()) {
      if (c.load_deadline() < b.load_deadline()) best = i;
    } else if (c.laxity(ctx.now) != b.laxity(ctx.now)) {
      if (c.laxity(ctx.now) < b.laxity(ctx.now)) best = i;
    } else if (c.load_ticks != b.load_ticks) {
      if (c.load_ticks > b.load_ticks) best = i;
    } else if (c.slot < b.slot) {
      best = i;
    }
  }
  return best;
}

std::unique_ptr<PrefetchPolicy> make_prefetch_policy(PrefetchKind kind) {
  switch (kind) {
    case PrefetchKind::kNone:
      return nullptr;
    case PrefetchKind::kStatic:
      return std::make_unique<StaticLookaheadPolicy>();
    case PrefetchKind::kHybrid:
      return std::make_unique<HybridPrefetchPolicy>();
  }
  return nullptr;
}

}  // namespace reconf::rt
