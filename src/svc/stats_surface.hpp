#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "svc/verdict_cache.hpp"

namespace reconf::svc {

/// The serving tier's exposition glue: cache accounting is kept in the
/// caches' own relaxed counters rather than double-counted on the hot path;
/// this copies a snapshot into the process MetricsRegistry as gauges at
/// exposition time — a `stats` NDJSON request or a --metrics-out dump.

/// Publishes `reconf_cache_*` gauges fed from a fleet of per-shard caches
/// (shard-index order): aggregate entries/capacity/hit-rate, the
/// lookup-traffic imbalance across shards (peak/mean shard lookups; 1.0 =
/// balanced, 0.0 before any lookup), and per-shard
/// hits/misses/evictions/entries labelled `{shard="N"}`. `total_capacity`
/// is the configured capacity across all shards.
void publish_shard_cache_stats(const std::vector<CacheStats>& shards,
                               std::size_t total_capacity);

/// Response line for a `{"id":...,"stats":true}` request:
///   {"id":"...","stats":<MetricsRegistry json_snapshot>}
/// Publish the gauges first so the embedded values are current.
[[nodiscard]] std::string format_stats_line(const std::string& id);

}  // namespace reconf::svc
