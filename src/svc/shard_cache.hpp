#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "svc/verdict_cache.hpp"

namespace reconf::svc {

/// Single-owner LRU verdict cache — the one LRU implementation. A shard
/// worker of the async serving tier owns one ShardCache exclusively, so
/// lookup/insert take no locks and touch no shared state; VerdictCache
/// wraps one per lock stripe for callers that share a cache across
/// threads. Correctness of the async partitioning is the router's job
/// (svc/shard_route.hpp): every key is routed to exactly one shard, so two
/// workers can never race on the same entry by construction.
///
/// The statistics counters are relaxed atomics — the only concession to
/// other threads, letting the stats surface sample hit/miss/entry counts
/// live without stopping the worker. A relaxed increment on a cache line
/// nobody else writes costs the same as a plain add.
class ShardCache : public VerdictStore {
 public:
  /// No reserve: the index grows with the traffic, so an idle cache costs
  /// no memory and a server starts without touching capacity-sized tables.
  explicit ShardCache(std::size_t capacity) : capacity_(capacity) {}

  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

  /// Owner-thread only. Returns the cached verdict and refreshes its
  /// recency, or nullopt.
  [[nodiscard]] std::optional<CachedVerdict> lookup(std::uint64_t key)
      override {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return it->second->verdict;
  }

  /// Owner-thread only. Inserts or refreshes `key`, evicting the least
  /// recently used entry when full. Capacity 0 disables the cache.
  void insert(std::uint64_t key, CachedVerdict verdict) override {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->verdict = std::move(verdict);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    lru_.push_front({key, std::move(verdict)});
    index_.emplace(key, lru_.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    entries_.store(lru_.size(), std::memory_order_relaxed);
  }

  /// Safe from any thread: a racy-but-consistent counter snapshot.
  [[nodiscard]] CacheStats stats() const {
    CacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.entries = entries_.load(std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// Owner-thread only (or worker quiesced — the snapshot path runs after
  /// drain).
  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }

  /// Owner-thread only / quiesced. Entries least-recent first — the order a
  /// capacity-limited restore wants to replay them in.
  [[nodiscard]] std::vector<SnapshotEntry> entries_lru_to_mru() const {
    return {lru_.rbegin(), lru_.rend()};
  }

  /// Owner-thread only / quiesced.
  void clear() {
    lru_.clear();
    index_.clear();
    entries_.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_ = 0;
  /// Front = most recently used; the map points into this list.
  std::list<SnapshotEntry> lru_;
  std::unordered_map<std::uint64_t, std::list<SnapshotEntry>::iterator>
      index_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
};

/// The topology-free snapshot order of a set of LRU partitions: the
/// partitions' entry lists (each least-recent first) interleaved rank by
/// rank. Recency is only ordered within a partition, so the round-robin
/// merge is the best global order available — a restore into a different
/// partition count, or a smaller capacity, keeps approximately the most
/// recent entries instead of whichever partition was written last.
[[nodiscard]] std::vector<SnapshotEntry> interleave_by_recency(
    const std::vector<std::vector<SnapshotEntry>>& partitions);

/// Snapshot glue for a fleet of per-shard caches (the async tier's
/// `--cache-snapshot`). The on-disk format is the v1 snapshot of
/// write_snapshot_entries, and restore routes every key through
/// svc::shard_for_key into the CURRENT shard count, so a snapshot taken at
/// S shards restores correctly at S' shards instead of assuming the
/// writer's topology. All functions require the workers to be quiesced
/// (startup / after drain).
bool save_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path,
                         std::string* error = nullptr);

bool load_shard_snapshot(const std::vector<ShardCache*>& shards,
                         const std::string& path,
                         std::size_t* restored = nullptr,
                         std::string* error = nullptr);

}  // namespace reconf::svc
