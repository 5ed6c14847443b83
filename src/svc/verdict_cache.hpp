#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace reconf::svc {

/// The cacheable part of an engine verdict: everything the serving path
/// needs to answer a repeated request without re-running the tests. The full
/// per-analyzer diagnostics are deliberately not cached — they are large,
/// and a caller that wants them re-analyzes (see evaluate_with_engine).
///
/// Trivially copyable: a cache copies `accepted_by` into its own id table on
/// insert, and the view a lookup returns points into that table and stays
/// valid while the cache lives.
struct CachedVerdict {
  bool accepted = false;
  /// Id of the first accepting analyzer ("dp"/"gn1"/…), empty on reject.
  std::string_view accepted_by;
};
static_assert(std::is_trivially_copyable_v<CachedVerdict>);

/// Monotonic counters for one shard, or aggregated over all shards
/// (VerdictCache::stats() vs shard_stats()).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Resident entries at snapshot time (not monotonic).
  std::size_t entries = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return hits + misses;
  }

  /// Field-wise sum: adds another shard's counters to an aggregate.
  CacheStats& operator+=(const CacheStats& other) noexcept {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    entries += other.entries;
    return *this;
  }

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// The verdict-cache contract the batch pipeline and the serving tier
/// evaluate against: a keyed store of CachedVerdict. The
/// LRU itself is the single-owner ShardCache (svc/shard_cache.hpp) that the
/// async serving tier gives each shard worker; VerdictCache below is a
/// thread-safe striped wrapper around ShardCaches for callers that share
/// one cache across threads. The evaluation path (svc/batch.cpp
/// evaluate_with_engine) is written against this interface.
class VerdictStore {
 public:
  virtual ~VerdictStore() = default;

  /// Returns the cached verdict for `key` (refreshing recency), or nullopt.
  [[nodiscard]] virtual std::optional<CachedVerdict> lookup(
      std::uint64_t key) = 0;

  /// Inserts or refreshes `key`, evicting per the implementation's policy.
  virtual void insert(std::uint64_t key, CachedVerdict verdict) = 0;
};

/// Thread-safe verdict cache: lock stripes, each a mutex around one
/// ShardCache LRU partition.
///
/// Keys are `svc::verdict_cache_key` values (canonical taskset hash mixed
/// with the test-configuration fingerprint) — already uniformly mixed, so
/// the stripe index is just the low bits. Concurrent lookups on different
/// stripes never contend.
///
/// Its last user outside its own tests is perfbench's layer pass, which
/// times run_batch over it; the serving tier and the admission session
/// never build one.
///
/// A capacity of 0 disables the cache: lookups miss, inserts are dropped.
/// Total capacity is split evenly across stripes, so per-stripe eviction
/// approximates (not exactly equals) global LRU — the standard trade-off.
class VerdictCache : public VerdictStore {
 public:
  /// `shards` (the stripe count) is rounded up to a power of two; at most
  /// one stripe per capacity slot is kept so tiny caches still evict in LRU
  /// order.
  explicit VerdictCache(std::size_t capacity, std::size_t shards = 16);
  ~VerdictCache() override;

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Returns the cached verdict and refreshes its recency, or nullopt.
  [[nodiscard]] std::optional<CachedVerdict> lookup(std::uint64_t key)
      override;

  /// Inserts or refreshes `key`, evicting the shard's least recently used
  /// entry when the shard is full.
  void insert(std::uint64_t key, CachedVerdict verdict) override;

  [[nodiscard]] CacheStats stats() const;

  /// Per-shard counters in shard-index order — the aggregate of stats()
  /// hides imbalance (a hash flaw or adversarial key stream can pile
  /// traffic onto one shard and serialize on its mutex; only the per-shard
  /// view shows it).
  [[nodiscard]] std::vector<CacheStats> shard_stats() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return stripes_.size();
  }
  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// Drops all entries; statistics counters are kept.
  void clear();

 private:
  struct Stripe;  ///< {mutex, ShardCache}; defined in verdict_cache.cpp

  [[nodiscard]] Stripe& stripe_for(std::uint64_t key) const noexcept {
    return *stripes_[key & stripe_mask_];
  }

  std::size_t capacity_ = 0;
  std::uint64_t stripe_mask_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// One cache entry as it leaves or enters a cache: an element of
/// ShardCache::entries_lru_to_mru() and one line of the v1 snapshot format
/// the async tier's shard fleet writes and reads (save_shard_snapshot /
/// load_shard_snapshot in svc/shard_cache.hpp). Its `accepted_by` views the
/// id table of the cache it came from, or the analyzer registry's id when
/// read from a file.
struct SnapshotEntry {
  std::uint64_t key = 0;
  CachedVerdict verdict;
};

/// Writes `entries` (least-recent first) as a crash-safe v1 snapshot:
/// written to `path`.tmp and atomically renamed over the target, so a crash
/// mid-write never corrupts a previous good snapshot. Returns false with
/// `error` set on I/O failure.
///
///   reconf-verdict-cache v1
///   count <N>
///   <%016x key> <0|1 accepted> <accepted_by or "-">
bool write_snapshot_entries(const std::string& path,
                            const std::vector<SnapshotEntry>& entries,
                            std::string* error = nullptr);

/// Reads a v1 snapshot into `entries` (file order, least-recent first).
/// Refuses — returning false, leaving `entries` unspecified — truncated or
/// malformed files: a half-written snapshot must not warm a cache with
/// silently missing entries. Malformed: a count, key or flag that does not
/// parse whole, an entry line without exactly three fields, or an entry
/// that is neither `1` with an id registered in
/// analysis::AnalyzerRegistry::instance() nor `0` with `-`. An accepted
/// entry's `accepted_by` views the registry's id.
bool read_snapshot_entries(const std::string& path,
                           std::vector<SnapshotEntry>& entries,
                           std::string* error = nullptr);

}  // namespace reconf::svc
