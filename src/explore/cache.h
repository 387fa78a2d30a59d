#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "assign/search_status.h"
#include "explore/pareto.h"
#include "obs/metrics.h"

namespace mhla::xplore {

/// FNV-1a 64-bit offset basis: the hash of the empty string.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a 64-bit hash of `text` — the canonical cache key primitive.  The
/// explorer hashes the serialized program plus the cell's effective
/// PipelineConfig JSON (thread count zeroed: parallelism must never change
/// a key), so any change to the program, the platform models, the strategy
/// or its options yields a fresh key and a stale cache can never serve it.
/// FNV-1a consumes bytes strictly left to right, so a hash resumes from a
/// prefix's value: `fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)`.
std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash = kFnv1a64Basis);

/// One evaluated design-space cell: the cell coordinates (for human
/// inspection and report tooling), the measured cost pair, and the outcome
/// contract of the search that produced it.
struct CacheEntry {
  i64 l1_bytes = 0;
  i64 l2_bytes = 0;
  std::string strategy;
  bool with_te = false;
  double cycles = 0.0;
  double energy_nj = 0.0;

  /// Outcome of the search that produced the pair (see
  /// assign/search_status.h).  Only completed results are cacheable: a
  /// budget-truncated result depends on knobs the cache key deliberately
  /// normalizes away, and an infeasible one must never be served at all.
  /// Every insert path enforces this (see `cacheable`).
  assign::SearchStatus status = assign::SearchStatus::Feasible;

  friend bool operator==(const CacheEntry&, const CacheEntry&) = default;
};

/// The one cacheability rule, enforced inside the cache itself (not just by
/// well-behaved callers), so file loads and merges obey it too: only
/// `Optimal` and `Feasible` results with a finite, non-negative cost pair
/// may be stored.  `BudgetExhausted` results depend on the deadline knobs
/// the cache key normalizes away, `Infeasible` assignments must never be
/// consumed, and a NaN, infinite or negative cycle or energy count is an
/// impossible cost (an overflowed count, say) — caching any of them would
/// let a truncated or broken run poison every later exploration that hits
/// the key.
bool cacheable(const CacheEntry& entry);

/// Capacity policy of a ResultCache.
///
/// `max_entries` bounds the resident entry count; the bound is enforced per
/// lock stripe (each holds at most ceil(max / kStripes) entries), so the
/// global count can transiently overshoot by at most one entry per stripe
/// while the key distribution is skewed — never unboundedly.  `evict_floor`
/// is the hard lower guarantee: eviction never shrinks the cache below this
/// many entries, so a reader that observed a warm cache cannot find it
/// drained mid-lookup by a concurrent eviction storm.  A floor above the
/// cap raises the effective cap to the floor.
struct CacheBounds {
  std::size_t max_entries = 0;  ///< 0 = unbounded (no eviction)
  std::size_t evict_floor = 0;  ///< eviction never drops the count below this

  friend bool operator==(const CacheBounds&, const CacheBounds&) = default;
};

/// Counters of a ResultCache, for the server's `cache_stats` protocol verb
/// and the bench harness.  Monotonic except `entries`.
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

/// The store of evaluated design-space cells (see explore/explorer.h), one
/// class for the explorer, the corpus driver, `mhla_tool --cache-merge` and
/// the process-wide cache of `mhla_serve`.
///
///  * **Lock striping.**  Keys are mixed (they are FNV hashes already, but
///    the mix keeps adversarial key sets off one stripe) and spread over
///    kStripes stripes, each an unordered map plus an LRU list behind its
///    own mutex: operations on different stripes never contend.  Lookup
///    copies the entry out, as the node may be evicted once the lock drops.
///  * **Bounds + LRU eviction.**  See CacheBounds.  An insert past the
///    per-stripe cap evicts that stripe's cold tail; each eviction claims
///    its decrement of the global size with a compare-exchange that refuses
///    to cross `evict_floor`, so the floor holds under any interleaving.
///  * **Cacheability guard.**  Only `cacheable` entries are accepted;
///    refusals count as `rejected`.
///  * **Persistence.**  JSON, one entry per line, sorted by key, doubles
///    with max_digits10: a reloaded entry reproduces the evaluated doubles
///    bit for bit, so a warm re-exploration returns the identical frontier
///    with zero pipeline runs.  `save` writes a temp file, fsyncs it and
///    renames it over the target, so a crash leaves the complete old or the
///    complete new document.  `load` salvages every well-formed entry line
///    of a malformed document and quarantines the damaged original next to
///    it (".quarantine") instead of throwing the warm results away.
///  * **Convergence.**  Processes exploring concurrently save to distinct
///    files and merge them (`merge_from`, `load` into one cache, or
///    `mhla_tool --cache-merge`); the later write wins on a key collision.
class ResultCache {
 public:
  static constexpr std::size_t kStripes = 16;

  /// What load() found: `clean` for a missing file or a well-formed
  /// document; otherwise `salvaged` entries were recovered, the original
  /// kept at `quarantine_path`, and `message` is the warning to print.
  struct LoadReport {
    bool clean = true;
    std::size_t entries = 0;
    std::size_t salvaged = 0;
    std::string quarantine_path;
    std::string message;
  };

  explicit ResultCache(CacheBounds bounds = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copy the entry at `key` into `out` and bump its recency; false on a miss.
  bool lookup(std::uint64_t key, CacheEntry& out);

  /// Store `entry` at `key` (last write wins), evicting the stripe's LRU
  /// tail past the cap.  Returns false — and stores nothing — when `entry`
  /// is not cacheable.
  bool insert(std::uint64_t key, CacheEntry entry);

  /// Adopt every entry of `other` (other wins on key collisions; bounds and
  /// eviction apply as for plain inserts).
  void merge_from(const ResultCache& other);

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  CacheStats stats() const;

  /// The stripe that holds `key`: entries on one stripe share its lock,
  /// its LRU order and its share of `CacheBounds::max_entries`.
  static std::size_t stripe_of(std::uint64_t key);

  /// Expose this cache's counters through a metrics registry as
  /// `<prefix>.hits`, `.misses`, `.insertions`, `.rejected`, `.evictions`,
  /// `.saves` (counters) and `.entries` (gauge).  The rows are read from
  /// the same lock-free cells `stats()` sums, so a registry snapshot and a
  /// `cache_stats` reply can never drift apart.  Returns the source id;
  /// the caller must `remove_source` it before this cache is destroyed.
  std::uint64_t register_metrics(obs::Registry& registry, std::string prefix) const;

  /// Every entry, sorted by key.  Stripes are copied one at a time, so
  /// entries racing in on other stripes may or may not appear.
  std::map<std::uint64_t, CacheEntry> entries() const;

  /// Merge the document at `path` into this cache.  A missing file adds
  /// nothing; an existing but unreadable file throws std::runtime_error
  /// (proceeding cold would truncate the warm entries on the next save); a
  /// malformed document is salvaged entry by entry instead of throwing.
  LoadReport load(const std::string& path);

  /// JSON round-trip used by load/save.  `load_json` merges the entries of
  /// a well-formed document and throws on anything else, adopting nothing.
  /// Documents written before the entry status existed load with status
  /// "feasible" (the contract every pre-status entry was written under).
  void load_json(const std::string& text);
  std::string to_json(int indent = 0) const;

  /// Rewrite `path` with every entry via the crash-safe saver.  Throws
  /// std::runtime_error when the file cannot be written (the temp file is
  /// cleaned up and the previous document left untouched).
  void save(const std::string& path) const;

  /// Save only if something changed since the last completed save to any
  /// path; returns whether a save ran.  Saves are serialized internally, so
  /// a periodic persister and a shutdown save cannot interleave.
  bool save_if_dirty(const std::string& path) const;

 private:
  struct Node {
    CacheEntry entry;
    std::list<std::uint64_t>::iterator lru_it;
  };
  struct alignas(64) Stripe {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Node> map;
    std::list<std::uint64_t> lru;  ///< front = most recently used
    // Lock-free obs counters, not lock-guarded integers: `stats()` and a
    // registered metrics source read them without taking the stripe lock.
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter evictions;
  };

  /// Adopt `loaded` in key order; returns how many entries it held.
  std::size_t adopt(const std::map<std::uint64_t, CacheEntry>& loaded);

  /// Claim one eviction against the global size without ever crossing the
  /// floor; false when the floor (or an empty cache) forbids it.
  bool claim_eviction();

  bool persist(const std::string& path, bool only_if_dirty) const;

  CacheBounds bounds_;
  std::size_t per_stripe_cap_ = 0;  ///< 0 = unbounded
  mutable std::array<Stripe, kStripes> stripes_;
  std::atomic<std::size_t> size_{0};
  obs::Counter insertions_;
  obs::Counter rejected_;
  std::atomic<std::uint64_t> version_{0};  ///< bumped on every accepted mutation

  mutable std::mutex save_mu_;
  mutable std::uint64_t saved_version_ = 0;  ///< guarded by save_mu_
  mutable obs::Counter saves_;               ///< readable lock-free
};

}  // namespace mhla::xplore
