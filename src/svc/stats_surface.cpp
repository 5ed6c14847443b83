#include "svc/stats_surface.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json_escape.hpp"
#include "obs/metrics.hpp"

namespace reconf::svc {

void publish_shard_cache_stats(const std::vector<CacheStats>& shards,
                               std::size_t total_capacity) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  CacheStats total;
  std::uint64_t peak_lookups = 0;
  for (const CacheStats& s : shards) {
    total += s;
    peak_lookups = std::max(peak_lookups, s.lookups());
  }
  metrics.gauge("reconf_cache_entries")
      .set(static_cast<double>(total.entries));
  metrics.gauge("reconf_cache_capacity")
      .set(static_cast<double>(total_capacity));
  metrics.gauge("reconf_cache_hit_rate").set(total.hit_rate());
  const double imbalance =
      total.lookups() == 0
          ? 0.0
          : static_cast<double>(peak_lookups) /
                (static_cast<double>(total.lookups()) /
                 static_cast<double>(shards.empty() ? 1 : shards.size()));
  metrics.gauge("reconf_cache_shard_imbalance").set(imbalance);

  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    metrics.gauge("reconf_cache_shard_hits" + label)
        .set(static_cast<double>(shards[s].hits));
    metrics.gauge("reconf_cache_shard_misses" + label)
        .set(static_cast<double>(shards[s].misses));
    metrics.gauge("reconf_cache_shard_evictions" + label)
        .set(static_cast<double>(shards[s].evictions));
    metrics.gauge("reconf_cache_shard_entries" + label)
        .set(static_cast<double>(shards[s].entries));
  }
}

std::string format_stats_line(const std::string& id) {
  return "{\"id\":\"" + json_escape(id) + "\",\"stats\":" +
         obs::MetricsRegistry::instance().json_snapshot() + "}";
}

}  // namespace reconf::svc
