#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
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
/// Layout: the entries sit in one array, linked into an exact LRU list by
/// 32-bit prev/next indices, 24 bytes each. An open-addressed index of
/// 32-bit entry indices (linear probing, backward-shift deletion, at most
/// half full) finds them, 8 bytes per entry at capacity. `accepted_by` is
/// stored as a 2-byte index into the cache's own append-only table of the
/// distinct ids it has stored. Both arrays start empty and double up to the
/// capacity; once grown, a miss plus an evicting insert reuses the evicted
/// entry and allocates nothing. Lookups never allocate, and neither does an
/// insert whose id the table already holds.
///
/// The statistics counters are relaxed atomics — the only concession to
/// other threads, letting the stats surface sample hit/miss/entry counts
/// live without stopping the worker. A relaxed increment on a cache line
/// nobody else writes costs the same as a plain add.
class ShardCache : public VerdictStore {
 public:
  /// No reserve: the arrays grow with the traffic, so an idle cache costs
  /// no memory and a server starts without touching capacity-sized tables.
  /// A capacity above 2^32 − 2 entries holds at most 2^32 − 2.
  explicit ShardCache(std::size_t capacity)
      : capacity_(capacity),
        limit_(std::min<std::size_t>(capacity, kNone - 1)) {}

  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

  /// Owner-thread only. Returns the cached verdict and refreshes its
  /// recency, or nullopt. The verdict's `accepted_by` views this cache's id
  /// table and stays valid while the cache lives.
  [[nodiscard]] std::optional<CachedVerdict> lookup(std::uint64_t key)
      override {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t e = index_[slot];
    touch(e);
    return verdict_of(entries_[e]);
  }

  /// Owner-thread only. Inserts or refreshes `key`, evicting the least
  /// recently used entry when full. Capacity 0 disables the cache. Throws
  /// std::length_error when `verdict.accepted_by` would be the 65,536th
  /// distinct id.
  void insert(std::uint64_t key, CachedVerdict verdict) override {
    if (capacity_ == 0) return;
    const std::uint16_t id = intern(verdict.accepted_by);
    const std::size_t slot = find_slot(key);
    if (slot != kNoSlot) {
      const std::uint32_t e = index_[slot];
      entries_[e].accepted = verdict.accepted;
      entries_[e].id = id;
      touch(e);
      return;
    }
    std::uint32_t e = 0;
    if (entries_.size() >= limit_) {
      e = tail_;
      const std::size_t tail_slot = find_slot(entries_[e].key);
      RECONF_ASSERT(tail_slot != kNoSlot);
      erase_slot(tail_slot);
      unlink(e);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (entries_.size() == entries_.capacity()) grow();
      e = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    Entry& entry = entries_[e];
    entry.key = key;
    entry.id = id;
    entry.accepted = verdict.accepted;
    link_front(e);
    place(e);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    resident_.store(entries_.size(), std::memory_order_relaxed);
  }

  /// Safe from any thread: a racy-but-consistent counter snapshot.
  [[nodiscard]] CacheStats stats() const {
    CacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.entries = resident_.load(std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// Owner-thread only (or worker quiesced — the snapshot path runs after
  /// drain).
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Owner-thread only / quiesced. Entries least-recent first — the order a
  /// capacity-limited restore wants to replay them in. Their ids view this
  /// cache's id table.
  [[nodiscard]] std::vector<SnapshotEntry> entries_lru_to_mru() const {
    std::vector<SnapshotEntry> out;
    out.reserve(entries_.size());
    for (std::uint32_t e = tail_; e != kNone; e = entries_[e].prev) {
      out.push_back({entries_[e].key, verdict_of(entries_[e])});
    }
    return out;
  }

  /// Owner-thread only / quiesced. Drops every entry and keeps the arrays
  /// and the id table, so views handed out earlier stay valid.
  void clear() {
    entries_.clear();
    std::fill(index_.begin(), index_.end(), kNone);
    head_ = tail_ = kNone;
    resident_.store(0, std::memory_order_relaxed);
  }

  /// The multiplicative hash the index places keys by: an entry's home slot
  /// in an n-slot index is the high 64 bits of index_hash(key) × n.
  /// Multiplying by an odd constant is a bijection, so sequential keys
  /// spread and every hash value has exactly one key.
  [[nodiscard]] static constexpr std::uint64_t index_hash(
      std::uint64_t key) noexcept {
    return key * 0x9E3779B97F4A7C15ull;
  }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();
  /// Entries allocated by the first insert; each growth doubles them.
  static constexpr std::size_t kFirstEntries = 16;

  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t prev = kNone;  ///< toward the most recently used end
    std::uint32_t next = kNone;  ///< toward the least recently used end
    std::uint16_t id = 0;        ///< 0 = no id, else ids_[id - 1]
    bool accepted = false;
  };
  static_assert(sizeof(Entry) <= 24);
  static_assert(std::is_trivially_copyable_v<Entry>);

  [[nodiscard]] CachedVerdict verdict_of(const Entry& e) const noexcept {
    return {e.accepted,
            e.id == 0 ? std::string_view() : std::string_view(*ids_[e.id - 1])};
  }

  /// The id's index in the table, appending it when new.
  std::uint16_t intern(std::string_view id) {
    if (id.empty()) return 0;
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (*ids_[i] == id) return static_cast<std::uint16_t>(i + 1);
    }
    if (ids_.size() == std::numeric_limits<std::uint16_t>::max()) {
      throw std::length_error("ShardCache: more than 65535 distinct ids");
    }
    ids_.push_back(std::make_unique<const std::string>(id));
    return static_cast<std::uint16_t>(ids_.size());
  }

  /// The high half of index_hash(key) × slots: a slot in [0, slots) for
  /// any slot count, not only powers of two.
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    __extension__ typedef unsigned __int128 Wide;
    return static_cast<std::size_t>(
        (static_cast<Wide>(index_hash(key)) * index_.size()) >> 64);
  }

  [[nodiscard]] std::size_t step(std::size_t slot) const noexcept {
    return slot + 1 == index_.size() ? 0 : slot + 1;
  }

  /// The index slot holding `key`, or kNoSlot.
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const noexcept {
    if (index_.empty()) return kNoSlot;
    for (std::size_t s = home(key);; s = step(s)) {
      const std::uint32_t e = index_[s];
      if (e == kNone) return kNoSlot;
      if (entries_[e].key == key) return s;
    }
  }

  /// Indexes entry `e`, whose key the index does not hold.
  void place(std::uint32_t e) noexcept {
    std::size_t s = home(entries_[e].key);
    while (index_[s] != kNone) s = step(s);
    index_[s] = e;
  }

  /// Slots from `from` forward to `to`, wrapping past the end.
  [[nodiscard]] std::size_t distance(std::size_t from,
                                     std::size_t to) const noexcept {
    return to >= from ? to - from : to + index_.size() - from;
  }

  /// Empties `hole` and shifts back every later entry of its probe run
  /// whose home slot lies at or before the hole, so no probe for a
  /// resident key meets an empty slot before finding it.
  void erase_slot(std::size_t hole) noexcept {
    for (std::size_t s = step(hole);; s = step(s)) {
      const std::uint32_t e = index_[s];
      if (e == kNone) break;
      if (distance(hole, s) <= distance(home(entries_[e].key), s)) {
        index_[hole] = e;
        hole = s;
      }
    }
    index_[hole] = kNone;
  }

  /// Doubles the entry array (up to the limit) and rebuilds the index at
  /// twice its size.
  void grow() {
    const std::size_t want =
        std::min(limit_, std::max(kFirstEntries, 2 * entries_.capacity()));
    entries_.reserve(want);
    index_.assign(2 * want, kNone);
    for (std::uint32_t e = 0; e < entries_.size(); ++e) place(e);
  }

  void unlink(std::uint32_t e) noexcept {
    Entry& entry = entries_[e];
    if (entry.prev == kNone) {
      head_ = entry.next;
    } else {
      entries_[entry.prev].next = entry.next;
    }
    if (entry.next == kNone) {
      tail_ = entry.prev;
    } else {
      entries_[entry.next].prev = entry.prev;
    }
  }

  void link_front(std::uint32_t e) noexcept {
    Entry& entry = entries_[e];
    entry.prev = kNone;
    entry.next = head_;
    if (head_ == kNone) {
      tail_ = e;
    } else {
      entries_[head_].prev = e;
    }
    head_ = e;
  }

  /// Makes `e` the most recently used entry.
  void touch(std::uint32_t e) noexcept {
    if (e == head_) return;
    unlink(e);
    link_front(e);
  }

  std::size_t capacity_ = 0;
  std::size_t limit_ = 0;  ///< capacity_, capped by the 32-bit indices
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;  ///< entry indices; kNone = empty
  /// Append-only; each id has its own allocation, so a view never moves.
  std::vector<std::unique_ptr<const std::string>> ids_;
  std::uint32_t head_ = kNone;  ///< most recently used
  std::uint32_t tail_ = kNone;  ///< least recently used
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> resident_{0};
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
