#include "svc/verdict_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "svc/shard_cache.hpp"

namespace reconf::svc {

namespace {

std::size_t round_up_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

struct VerdictCache::Stripe {
  explicit Stripe(std::size_t capacity) : cache(capacity) {}
  std::mutex mutex;
  ShardCache cache;
};

VerdictCache::VerdictCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  // Never more stripes than capacity slots: a 3-entry cache with 16 stripes
  // would otherwise degrade to per-key direct-mapped eviction.
  std::size_t want = round_up_pow2(std::max<std::size_t>(1, shards));
  if (capacity_ > 0) {
    while (want > 1 && want > capacity_) want >>= 1;
  }
  stripe_mask_ = want - 1;
  const std::size_t per_stripe =
      capacity_ == 0 ? 0 : (capacity_ + want - 1) / want;
  stripes_.reserve(want);
  for (std::size_t s = 0; s < want; ++s) {
    stripes_.push_back(std::make_unique<Stripe>(per_stripe));
  }
}

VerdictCache::~VerdictCache() = default;

std::optional<CachedVerdict> VerdictCache::lookup(std::uint64_t key) {
  Stripe& st = stripe_for(key);
  const std::lock_guard<std::mutex> lock(st.mutex);
  return st.cache.lookup(key);
}

void VerdictCache::insert(std::uint64_t key, CachedVerdict verdict) {
  Stripe& st = stripe_for(key);
  const std::lock_guard<std::mutex> lock(st.mutex);
  st.cache.insert(key, std::move(verdict));
}

CacheStats VerdictCache::stats() const {
  CacheStats out;
  for (const CacheStats& s : shard_stats()) {
    out.hits += s.hits;
    out.misses += s.misses;
    out.insertions += s.insertions;
    out.evictions += s.evictions;
    out.entries += s.entries;
  }
  return out;
}

std::vector<CacheStats> VerdictCache::shard_stats() const {
  std::vector<CacheStats> out;
  out.reserve(stripes_.size());
  for (const auto& st : stripes_) out.push_back(st->cache.stats());
  return out;
}

std::size_t VerdictCache::size() const {
  std::size_t n = 0;
  for (const auto& st : stripes_) {
    const std::lock_guard<std::mutex> lock(st->mutex);
    n += st->cache.size();
  }
  return n;
}

void VerdictCache::clear() {
  for (const auto& st : stripes_) {
    const std::lock_guard<std::mutex> lock(st->mutex);
    st->cache.clear();
  }
}

namespace {

constexpr const char kSnapshotHeader[] = "reconf-verdict-cache v1";

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

bool write_snapshot_entries(const std::string& path,
                            const std::vector<SnapshotEntry>& entries,
                            std::string* error) {
  std::string body;
  body.reserve(entries.size() * 24);
  for (const SnapshotEntry& e : entries) {
    char key_hex[17];
    std::snprintf(key_hex, sizeof key_hex, "%016llx",
                  static_cast<unsigned long long>(e.key));
    body += key_hex;
    body += e.verdict.accepted ? " 1 " : " 0 ";
    body += e.verdict.accepted_by.empty() ? "-" : e.verdict.accepted_by;
    body += '\n';
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return set_error(error, "cannot open " + tmp);
    out << kSnapshotHeader << "\n"
        << "count " << entries.size() << "\n"
        << body;
    out.flush();
    if (!out) return set_error(error, "write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return set_error(error, "rename to " + path + " failed");
  }
  return true;
}

bool read_snapshot_entries(const std::string& path,
                           std::vector<SnapshotEntry>& entries,
                           std::string* error) {
  entries.clear();
  std::ifstream in(path);
  if (!in) return set_error(error, "cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || line != kSnapshotHeader) {
    return set_error(error, path + ": not a verdict-cache snapshot");
  }
  std::size_t count = 0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "count %zu", &count) != 1) {
    return set_error(error, path + ": missing count header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key_hex;
    int accepted = 0;
    std::string accepted_by;
    if (!(fields >> key_hex >> accepted >> accepted_by) ||
        key_hex.size() != 16 || (accepted != 0 && accepted != 1)) {
      return set_error(error,
                       path + ": malformed snapshot line '" + line + "'");
    }
    std::uint64_t key = 0;
    if (std::sscanf(key_hex.c_str(), "%llx",
                    reinterpret_cast<unsigned long long*>(&key)) != 1) {
      return set_error(error, path + ": bad key '" + key_hex + "'");
    }
    entries.push_back(
        {key, CachedVerdict{accepted == 1,
                            accepted_by == "-" ? "" : accepted_by}});
  }
  if (entries.size() != count) {
    return set_error(error, path + ": truncated snapshot (" +
                                std::to_string(entries.size()) + " of " +
                                std::to_string(count) + " entries)");
  }
  return true;
}

}  // namespace reconf::svc
