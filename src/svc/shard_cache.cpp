#include "svc/shard_cache.hpp"

#include <algorithm>

#include "svc/shard_route.hpp"

namespace reconf::svc {

std::vector<SnapshotEntry> interleave_by_recency(
    const std::vector<std::vector<SnapshotEntry>>& partitions) {
  std::size_t total = 0;
  std::size_t longest = 0;
  for (const auto& p : partitions) {
    total += p.size();
    longest = std::max(longest, p.size());
  }
  std::vector<SnapshotEntry> merged;
  merged.reserve(total);
  for (std::size_t rank = 0; rank < longest; ++rank) {
    for (const auto& p : partitions) {
      if (rank < p.size()) merged.push_back(p[rank]);
    }
  }
  return merged;
}

bool save_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path, std::string* error) {
  std::vector<std::vector<SnapshotEntry>> partitions;
  partitions.reserve(shards.size());
  for (const ShardCache* cache : shards) {
    partitions.push_back(cache->entries_lru_to_mru());
  }
  return write_snapshot_entries(path, interleave_by_recency(partitions),
                                error);
}

bool load_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path, std::size_t* restored,
                         std::string* error) {
  if (restored != nullptr) *restored = 0;
  std::vector<SnapshotEntry> entries;
  if (!read_snapshot_entries(path, entries, error)) return false;
  // Route every key by the CURRENT shard count — never by whatever
  // topology the writer had. The jump hash keeps ~ (1 - S/S') of the keys
  // on their old shard when growing from S to S' shards, but correctness
  // never depends on that: the router is the single source of placement
  // for restore and live traffic alike.
  const auto n = static_cast<std::uint32_t>(shards.size());
  for (const SnapshotEntry& e : entries) {
    shards[shard_for_key(e.key, n)]->insert(e.key, e.verdict);
  }
  if (restored != nullptr) *restored = entries.size();
  return true;
}

}  // namespace reconf::svc
