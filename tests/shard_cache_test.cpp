// svc::ShardCache against a reference model of exact LRU: the same seeded
// streams of lookups, inserts and re-inserts of resident keys go through
// both, and every returned verdict, every counter and (at checkpoints) the
// whole recency order must agree. The keys include runs that all hash to
// the index's last slot or its first, so probe runs and backward-shift
// deletions wrap past the end of the table. A second case counts global
// allocations: once a cache is full, evicting inserts and lookups make none.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <list>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "svc/shard_cache.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Every allocation in this binary goes through these, so a test can count
// the allocations a stretch of code makes. Each form is replaced, so a
// sanitizer runtime never frees memory it did not allocate. All are kept
// out of line: inlined, GCC would pair malloc/free with new/delete calls
// and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace reconf {
namespace {

/// The verdict cache as it was before the flat layout: a std::list in
/// recency order, an std::unordered_map into it and the id as a string.
class ReferenceLru {
 public:
  struct Verdict {
    bool accepted = false;
    std::string accepted_by;
  };
  struct Entry {
    std::uint64_t key = 0;
    Verdict verdict;
  };

  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  std::optional<Verdict> lookup(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->verdict;
  }

  void insert(std::uint64_t key, Verdict verdict) {
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
      ++stats_.evictions;
    }
    lru_.push_front({key, std::move(verdict)});
    index_.emplace(key, lru_.begin());
    ++stats_.insertions;
    stats_.entries = lru_.size();
  }

  [[nodiscard]] const svc::CacheStats& stats() const { return stats_; }
  [[nodiscard]] const std::list<Entry>& mru_to_lru() const { return lru_; }

 private:
  std::size_t capacity_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  svc::CacheStats stats_;
};

/// The key whose ShardCache::index_hash is `h`: the hash multiplies by an
/// odd constant, so its inverse modulo 2^64 (Newton's iteration) undoes it.
std::uint64_t key_with_hash(std::uint64_t h) {
  const std::uint64_t a = svc::ShardCache::index_hash(1);
  std::uint64_t inverse = a;
  for (int i = 0; i < 5; ++i) inverse *= 2 - a * inverse;
  return h * inverse;
}

/// `count` distinct keys: up to 64 whose home is the last slot of any index
/// up to 2^32 slots, up to 64 whose home is slot 0, and seeded random keys.
std::vector<std::uint64_t> make_keys(std::size_t count, std::mt19937_64& rng) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 64 && keys.size() < count; ++i) {
    keys.push_back(key_with_hash(~std::uint64_t{0} - i));
    if (keys.size() < count) keys.push_back(key_with_hash(i));
  }
  while (keys.size() < count) keys.push_back(rng());
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

void expect_same_stats(const svc::CacheStats& got,
                       const svc::CacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.entries, want.entries);
}

void expect_same_order(const svc::ShardCache& cache, const ReferenceLru& ref) {
  const std::vector<svc::SnapshotEntry> got = cache.entries_lru_to_mru();
  const std::list<ReferenceLru::Entry>& want = ref.mru_to_lru();
  ASSERT_EQ(got.size(), want.size());
  auto w = want.rbegin();
  for (const svc::SnapshotEntry& g : got) {
    ASSERT_EQ(g.key, w->key);
    ASSERT_EQ(g.verdict.accepted, w->verdict.accepted);
    ASSERT_EQ(g.verdict.accepted_by, w->verdict.accepted_by);
    ++w;
  }
}

/// One seeded stream of `ops` operations over `key_count` keys.
void run_stream(std::size_t capacity, std::size_t key_count, std::size_t ops,
                std::uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + ", " +
               std::to_string(key_count) + " keys, seed " +
               std::to_string(seed));
  std::mt19937_64 rng(seed);
  const std::vector<std::uint64_t> keys = make_keys(key_count, rng);
  // Ids short enough for the small-string buffer and one too long for it.
  const std::vector<std::string> ids = {
      "", "dp", "gn1", "gn2", "an-analyzer-id-longer-than-the-sso-buffer"};
  svc::ShardCache cache(capacity);
  ReferenceLru ref(capacity);
  const std::size_t checkpoint = std::max<std::size_t>(64, ops / 32);

  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 45) {
      const std::uint64_t key = keys[rng() % keys.size()];
      const std::optional<svc::CachedVerdict> got = cache.lookup(key);
      const std::optional<ReferenceLru::Verdict> want = ref.lookup(key);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (got) {
        ASSERT_EQ(got->accepted, want->accepted) << "op " << op;
        ASSERT_EQ(got->accepted_by, want->accepted_by) << "op " << op;
      }
    } else {
      std::uint64_t key = keys[rng() % keys.size()];
      const std::list<ReferenceLru::Entry>& lru = ref.mru_to_lru();
      if (roll >= 85 && !lru.empty()) {
        // Re-insert a resident key near one end of the recency order.
        const std::size_t steps = rng() % std::min<std::size_t>(lru.size(), 8);
        key = rng() % 2 == 0 ? std::next(lru.begin(), steps)->key
                             : std::next(lru.rbegin(), steps)->key;
      }
      const std::string& id = ids[rng() % ids.size()];
      const bool accepted = rng() % 2 == 0;
      cache.insert(key, svc::CachedVerdict{accepted, id});
      ref.insert(key, {accepted, id});
    }
    expect_same_stats(cache.stats(), ref.stats());
    ASSERT_EQ(cache.size(), ref.mru_to_lru().size()) << "op " << op;
    if (op % checkpoint == 0) expect_same_order(cache, ref);
    if (testing::Test::HasFailure()) FAIL() << "first difference at op " << op;
  }
  expect_same_order(cache, ref);
}

TEST(ShardCacheParity, SeededStreamsMatchTheReferenceLru) {
  for (const std::size_t capacity :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{17}, std::size_t{1024}, std::size_t{16384}}) {
    const std::size_t ops = 20'000 + 8 * capacity;
    // Key spaces that fit in the cache and ones that keep it evicting.
    for (const std::size_t keys :
         {std::max<std::size_t>(1, capacity / 2), 2 * capacity + 3}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        run_stream(capacity, keys, ops, seed * 1'000'003 + capacity);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ShardCacheParity, ClearKeepsEarlierViewsValid) {
  svc::ShardCache cache(4);
  cache.insert(1, {true, std::string("an-id-built-in-a-temporary-string")});
  const std::optional<svc::CachedVerdict> before = cache.lookup(1);
  ASSERT_TRUE(before.has_value());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup(1).has_value());
  for (std::uint64_t k = 0; k < 64; ++k) {
    cache.insert(k, {true, "id-" + std::to_string(k % 5)});
  }
  EXPECT_EQ(before->accepted_by, "an-id-built-in-a-temporary-string");
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

TEST(ShardCacheAllocation, FullCacheEvictsAndLooksUpWithoutAllocating) {
  constexpr std::size_t kCapacity = 16'384;
  constexpr std::size_t kOps = 100'000;
  const char* const ids[] = {"", "dp", "gn1", "gn2"};
  svc::ShardCache cache(kCapacity);
  std::uint64_t next = 0;
  for (; next < kCapacity; ++next) {
    cache.insert(mix(next), {next % 4 != 0, ids[next % 4]});
  }
  ASSERT_EQ(cache.size(), kCapacity);

  std::size_t hits = 0;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kOps; ++i, ++next) {
    cache.insert(mix(next), {next % 4 != 0, ids[next % 4]});
  }
  // The newest kCapacity keys are resident: half of these hit.
  for (std::size_t i = 0; i < kOps; ++i) {
    hits += cache.lookup(mix(next - 1 - i % (2 * kCapacity))).has_value();
  }
  const std::size_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(cache.stats().evictions, kOps);
  EXPECT_EQ(hits, 3 * kCapacity + (kOps - 3 * 2 * kCapacity));
}

}  // namespace
}  // namespace reconf
