#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "explore/cache.h"
#include "obs/metrics.h"

namespace mhla::xplore {

/// Capacity policy of a ConcurrentResultCache.
///
/// `max_entries` bounds the resident entry count; the bound is enforced per
/// shard (each shard holds at most ceil(max/shards) entries), so the global
/// count can transiently overshoot by at most one entry per shard while the
/// key distribution is skewed — never unboundedly.  `evict_floor` is the
/// hard lower guarantee: eviction never shrinks the cache below this many
/// entries, so a reader that observed a warm cache cannot find it drained
/// mid-lookup by a concurrent eviction storm.  A floor above the cap raises
/// the effective cap to the floor.
struct CacheBounds {
  std::size_t max_entries = 0;  ///< 0 = unbounded (no eviction)
  std::size_t evict_floor = 0;  ///< eviction never drops the count below this

  friend bool operator==(const CacheBounds&, const CacheBounds&) = default;
};

/// Counters of a ConcurrentResultCache, for the server's `cache_stats`
/// protocol verb and the bench harness.  Monotonic except `entries`.
struct CacheStats {
  std::size_t entries = 0;
  std::size_t shards = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;  ///< accepted inserts (including overwrites)
  std::uint64_t rejected = 0;    ///< inserts refused by the cacheability guard
  std::uint64_t evictions = 0;
  std::uint64_t saves = 0;       ///< completed persistence passes
};

/// The process-wide result cache of `mhla_serve`: the sharded, lock-striped
/// concurrent form of `ResultCache`.
///
///  * **Sharding.**  Keys are spread over a power-of-two number of shards
///    (mixed first — cache keys are already FNV hashes, but the mix keeps
///    adversarial key sets from serializing on one stripe).  Each shard is
///    an unordered map plus an LRU list behind its own mutex, so concurrent
///    lookups and inserts on different shards never contend.
///  * **Bounds + LRU eviction.**  See CacheBounds.  Recency is tracked per
///    shard; an insert that pushes its shard over the per-shard cap evicts
///    from that shard's cold tail.  Every eviction claims its decrement of
///    the global size with a compare-exchange that refuses to cross
///    `evict_floor`, so the floor holds under any interleaving.
///  * **Cacheability guard.**  Same contract as every cache layer: only
///    `Optimal`/`Feasible` entries with a finite, non-negative cost pair
///    are accepted (`cacheable`); refusals count as `rejected`.
///  * **Persistence.**  `save`/`save_if_dirty` snapshot the shards into a
///    plain ResultCache and reuse its crash-safe temp+fsync+rename saver
///    (with its FaultInjector IoWrite sites), so a crash mid-persist leaves
///    the previous document intact and a damaged document salvage-loads.
///    `save_if_dirty` is what a periodic persister calls: it skips the I/O
///    entirely when nothing changed since the last completed save.
///  * **Convergence.**  `merge_from` adopts another cache's entries, so N
///    workers or N servers each persisting shards converge on one cache
///    (same last-write-wins contract as ResultCache::merge_from).
class ConcurrentResultCache : public ResultStore {
 public:
  /// `shard_count` is rounded up to a power of two; 0 picks the default
  /// (16).  Throws std::invalid_argument on a zero-entry cap below the
  /// floor only in the sense documented in CacheBounds (the floor wins).
  explicit ConcurrentResultCache(CacheBounds bounds = {}, std::size_t shard_count = 0);

  ConcurrentResultCache(const ConcurrentResultCache&) = delete;
  ConcurrentResultCache& operator=(const ConcurrentResultCache&) = delete;

  /// ResultStore interface.  `lookup` copies the entry out under the shard
  /// lock and bumps its recency; `insert` applies the status guard, then
  /// stores (last write wins) and evicts the shard's LRU tail past the cap.
  bool lookup(std::uint64_t key, CacheEntry& out) override;
  bool insert(std::uint64_t key, CacheEntry entry) override;

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  CacheStats stats() const;
  const CacheBounds& bounds() const { return bounds_; }

  /// Expose this cache's counters through a metrics registry as
  /// `<prefix>.hits`, `.misses`, `.insertions`, `.rejected`, `.evictions`,
  /// `.saves` (counters) and `.entries` (gauge).  The rows are read from
  /// the same lock-free cells `stats()` sums, so a registry snapshot and a
  /// `cache_stats` reply can never drift apart.  Returns the source id;
  /// the caller must `remove_source` it before this cache is destroyed.
  std::uint64_t register_metrics(obs::Registry& registry, std::string prefix) const;

  /// Adopt every cacheable entry of `other` (other wins on collisions;
  /// bounds/eviction apply as for plain inserts).
  void merge_from(const ResultCache& other);
  void merge_from(const ConcurrentResultCache& other);

  /// Consistent point-in-time copy (per shard; shards are copied one at a
  /// time, so entries racing in on other shards may or may not appear).
  ResultCache snapshot() const;

  /// Merge the persistent document at `path` into this cache, with the
  /// salvage semantics of ResultCache::load.  Returns the load report.
  ResultCache::LoadReport load_file(const std::string& path);

  /// Persist a snapshot to `path` via the crash-safe saver.  Throws
  /// std::runtime_error on failure (the previous document survives).
  void save(const std::string& path) const;

  /// Persist only if something changed since the last completed save to
  /// any path; returns whether a save ran.  Serialized internally, so a
  /// periodic persister and a shutdown save cannot interleave.
  bool save_if_dirty(const std::string& path) const;

 private:
  struct Node {
    CacheEntry entry;
    std::list<std::uint64_t>::iterator lru_it;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Node> map;
    std::list<std::uint64_t> lru;  ///< front = most recently used
    // Lock-free obs counters, not lock-guarded integers: `stats()` and a
    // registered metrics source read them without taking the shard lock,
    // so the `cache_stats` verb and the `metrics` verb report the same
    // numbers from the same cells — one source of truth.
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter evictions;
  };

  Shard& shard_of(std::uint64_t key) const;

  /// Claim one eviction against the global size without ever crossing the
  /// floor; false when the floor (or an empty cache) forbids it.
  bool claim_eviction();

  CacheBounds bounds_;
  std::size_t per_shard_cap_ = 0;  ///< 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> size_{0};
  obs::Counter insertions_;
  obs::Counter rejected_;
  std::atomic<std::uint64_t> version_{0};  ///< bumped on every accepted mutation

  mutable std::mutex save_mu_;
  mutable std::uint64_t saved_version_ = 0;  ///< guarded by save_mu_
  mutable obs::Counter saves_;               ///< readable lock-free
};

}  // namespace mhla::xplore
