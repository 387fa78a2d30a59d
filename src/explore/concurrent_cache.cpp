#include "explore/concurrent_cache.h"

#include <utility>

namespace mhla::xplore {

namespace {

/// Round up to a power of two (so shard selection is a mask, not a modulo).
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Finalizer mix (splitmix64 tail): cache keys are already FNV hashes, but
/// the mix keeps any externally supplied key set from piling onto one shard.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

constexpr std::size_t kDefaultShards = 16;

}  // namespace

ConcurrentResultCache::ConcurrentResultCache(CacheBounds bounds, std::size_t shard_count)
    : bounds_(bounds) {
  std::size_t shards = round_up_pow2(shard_count == 0 ? kDefaultShards : shard_count);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  if (bounds_.max_entries > 0) {
    // The floor wins over a smaller cap (a cache that must keep N entries
    // cannot be bounded below N), and every shard gets at least one slot.
    std::size_t cap = std::max(bounds_.max_entries, bounds_.evict_floor);
    per_shard_cap_ = std::max<std::size_t>(1, (cap + shards - 1) / shards);
  }
}

ConcurrentResultCache::Shard& ConcurrentResultCache::shard_of(std::uint64_t key) const {
  return *shards_[mix(key) & (shards_.size() - 1)];
}

bool ConcurrentResultCache::claim_eviction() {
  std::size_t current = size_.load(std::memory_order_relaxed);
  while (current > bounds_.evict_floor) {
    if (size_.compare_exchange_weak(current, current - 1, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

bool ConcurrentResultCache::lookup(std::uint64_t key, CacheEntry& out) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.misses.add();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  out = it->second.entry;
  shard.hits.add();
  return true;
}

bool ConcurrentResultCache::insert(std::uint64_t key, CacheEntry entry) {
  if (!cacheable(entry)) {
    rejected_.add();
    return false;
  }
  Shard& shard = shard_of(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.entry = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    } else {
      shard.lru.push_front(key);
      shard.map.emplace(key, Node{std::move(entry), shard.lru.begin()});
      size_.fetch_add(1, std::memory_order_relaxed);
      // Evict this shard's cold tail past the per-shard cap.  Each removal
      // first claims its decrement against the global floor, so concurrent
      // evictions on other shards can never team up to breach it.  The
      // just-inserted entry sits at the LRU front and the cap is >= 1, so
      // it is never its own victim.
      while (per_shard_cap_ != 0 && shard.map.size() > per_shard_cap_) {
        if (!claim_eviction()) break;
        std::uint64_t victim = shard.lru.back();
        shard.lru.pop_back();
        shard.map.erase(victim);
        shard.evictions.add();
      }
    }
  }
  insertions_.add();
  version_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CacheStats ConcurrentResultCache::stats() const {
  // Every row is a lock-free read of the same cells a registered metrics
  // source reads: the `cache_stats` verb and a registry snapshot cannot
  // disagree about this cache.
  CacheStats stats;
  stats.shards = shards_.size();
  stats.entries = size();
  stats.insertions = insertions_.value();
  stats.rejected = rejected_.value();
  for (const auto& shard : shards_) {
    stats.hits += shard->hits.value();
    stats.misses += shard->misses.value();
    stats.evictions += shard->evictions.value();
  }
  stats.saves = saves_.value();
  return stats;
}

std::uint64_t ConcurrentResultCache::register_metrics(obs::Registry& registry,
                                                      std::string prefix) const {
  return registry.add_source([this, prefix = std::move(prefix)](obs::MetricsSnapshot& out) {
    CacheStats s = stats();
    out.counters.emplace_back(prefix + ".hits", s.hits);
    out.counters.emplace_back(prefix + ".misses", s.misses);
    out.counters.emplace_back(prefix + ".insertions", s.insertions);
    out.counters.emplace_back(prefix + ".rejected", s.rejected);
    out.counters.emplace_back(prefix + ".evictions", s.evictions);
    out.counters.emplace_back(prefix + ".saves", s.saves);
    out.gauges.emplace_back(prefix + ".entries", static_cast<std::int64_t>(s.entries));
  });
}

void ConcurrentResultCache::merge_from(const ResultCache& other) {
  for (const auto& [key, entry] : other.entries()) insert(key, entry);
}

void ConcurrentResultCache::merge_from(const ConcurrentResultCache& other) {
  if (&other == this) return;
  merge_from(other.snapshot());
}

ResultCache ConcurrentResultCache::snapshot() const {
  ResultCache copy;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, node] : shard->map) copy.insert(key, node.entry);
  }
  return copy;
}

ResultCache::LoadReport ConcurrentResultCache::load_file(const std::string& path) {
  ResultCache::LoadReport report;
  ResultCache loaded = ResultCache::load(path, report);
  merge_from(loaded);
  return report;
}

void ConcurrentResultCache::save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(save_mu_);
  // Read the version before snapshotting: entries that land between the
  // read and the snapshot are persisted now but re-persisted by the next
  // dirty save — duplicated work at worst, never lost work.
  std::uint64_t version = version_.load(std::memory_order_acquire);
  snapshot().save(path);
  saved_version_ = version;
  saves_.add();
}

bool ConcurrentResultCache::save_if_dirty(const std::string& path) const {
  std::lock_guard<std::mutex> lock(save_mu_);
  std::uint64_t version = version_.load(std::memory_order_acquire);
  if (version == saved_version_) return false;
  snapshot().save(path);
  saved_version_ = version;
  saves_.add();
  return true;
}

}  // namespace mhla::xplore
