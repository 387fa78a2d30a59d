#include "explore/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "explore/explorer.h"
#include "helpers.h"

namespace mhla::xplore {
namespace {

using EntryMap = std::map<std::uint64_t, CacheEntry>;

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Deterministic entry derived from its key — the property tests' oracle:
/// whatever interleaving happened, the entry at `key` can only ever be
/// `entry_for(key)`.
CacheEntry entry_for(std::uint64_t key, assign::SearchStatus status = assign::SearchStatus::Feasible) {
  CacheEntry entry;
  entry.l1_bytes = static_cast<i64>(key * 2 + 128);
  entry.l2_bytes = static_cast<i64>(key % 3 == 0 ? 0 : key * 64);
  entry.strategy = key % 2 ? "greedy" : "bnb";
  entry.with_te = key % 2 == 0;
  entry.cycles = static_cast<double>(key) * 1.5 + 0.25;
  entry.energy_nj = static_cast<double>(key) * 2.5 + 0.125;
  entry.status = status;
  return entry;
}

/// `count` keys, starting the scan at `from`, that share one lock stripe:
/// the stripe's LRU order and per-stripe cap are then globally observable.
std::vector<std::uint64_t> keys_on_one_stripe(std::size_t count, std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  const std::size_t stripe = ResultCache::stripe_of(from);
  for (std::uint64_t key = from; keys.size() < count; ++key) {
    if (ResultCache::stripe_of(key) == stripe) keys.push_back(key);
  }
  return keys;
}

// --- Persistence format ------------------------------------------------------

/// The document the cache writes for a fixed entry set: sorted by key, one
/// entry per line, max_digits10 doubles, the status spelled out.  Changing
/// any byte of it strands every cache file on disk.
const char* const kGoldenDocument =
    "{\n"
    "  \"version\": 1,\n"
    "  \"entries\": [\n"
    "    {\"key\": \"0000000000000007\", \"l1_bytes\": 256, \"l2_bytes\": 0, \"strategy\": "
    "\"bnb\", \"with_te\": false, \"status\": \"feasible\", \"cycles\": 10, \"energy_nj\": 20},\n"
    "    {\"key\": \"000000000000002a\", \"l1_bytes\": 2048, \"l2_bytes\": 0, \"strategy\": "
    "\"bnb-par\", \"with_te\": true, \"status\": \"optimal\", \"cycles\": 0, \"energy_nj\": "
    "9.9999999999999995e-08},\n"
    "    {\"key\": \"0123456789abcdef\", \"l1_bytes\": 1024, \"l2_bytes\": 65536, \"strategy\": "
    "\"greedy\", \"with_te\": true, \"status\": \"optimal\", \"cycles\": 0.33333333333333331, "
    "\"energy_nj\": 123456.78901234501},\n"
    "    {\"key\": \"fedcba9876543210\", \"l1_bytes\": 128, \"l2_bytes\": 8192, \"strategy\": "
    "\"anneal\", \"with_te\": true, \"status\": \"feasible\", \"cycles\": 0.10000000000000001, "
    "\"energy_nj\": 4500000000000000}\n"
    "  ]\n"
    "}";

EntryMap golden_entries() {
  using assign::SearchStatus;
  return {{0x0123456789abcdefull,
           {1024, 65536, "greedy", true, 1.0 / 3.0, 123456.789012345, SearchStatus::Optimal}},
          {7, {256, 0, "bnb", false, 10.0, 20.0, SearchStatus::Feasible}},
          {0xfedcba9876543210ull, {128, 8192, "anneal", true, 0.1, 4.5e15, SearchStatus::Feasible}},
          {0x2a, {2048, 0, "bnb-par", true, 0.0, 1e-7, SearchStatus::Optimal}}};
}

TEST(ResultCache, SavesTheGoldenDocumentByteForByte) {
  // Inserted in reverse key order: the document is sorted regardless.
  ResultCache cache;
  const EntryMap golden = golden_entries();
  for (auto it = golden.rbegin(); it != golden.rend(); ++it) {
    ASSERT_TRUE(cache.insert(it->first, it->second));
  }
  EXPECT_EQ(cache.to_json(), kGoldenDocument);

  std::string path = temp_path("mhla_cache_golden.json");
  cache.save(path);
  EXPECT_EQ(slurp(path), std::string(kGoldenDocument) + "\n");

  ResultCache reloaded;
  reloaded.load_json(kGoldenDocument);
  EXPECT_EQ(reloaded.entries(), golden);
  ResultCache from_file;
  ResultCache::LoadReport report = from_file.load(path);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.entries, golden.size());
  EXPECT_EQ(from_file.entries(), golden);
  std::remove(path.c_str());

  EXPECT_EQ(ResultCache().to_json(), "{\n  \"version\": 1,\n  \"entries\": []\n}");
}

TEST(ResultCache, JsonRoundTripsEntries) {
  ResultCache cache;
  CacheEntry entry;
  entry.l1_bytes = 1024;
  entry.l2_bytes = 65536;
  entry.strategy = "greedy";
  entry.with_te = true;
  entry.cycles = 1.0 / 3.0;  // 17-digit round trip must be exact
  entry.energy_nj = 123456.789012345;
  cache.insert(fnv1a64("cell-a"), entry);
  entry.strategy = "anneal";
  entry.with_te = false;
  cache.insert(fnv1a64("cell-b"), entry);

  ResultCache reloaded;
  reloaded.load_json(cache.to_json());
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.entries(), cache.entries());
  CacheEntry found;
  ASSERT_TRUE(reloaded.lookup(fnv1a64("cell-a"), found));
  EXPECT_EQ(found.cycles, 1.0 / 3.0);
  EXPECT_EQ(found.strategy, "greedy");
}

TEST(ResultCache, MalformedJsonAdoptsNothing) {
  ResultCache cache;
  ASSERT_TRUE(cache.insert(1, entry_for(1)));
  // Cut inside the third entry: the entries before the cut are intact, and
  // still none of them lands.
  EXPECT_ANY_THROW(cache.load_json(std::string(kGoldenDocument).substr(0, 500)));
  EXPECT_ANY_THROW(cache.load_json("{\"version\": 2, \"entries\": []}"));
  EXPECT_EQ(cache.entries(), (EntryMap{{1, entry_for(1)}}));
}

TEST(ResultCache, SaveAndLoadPersist) {
  std::string path = temp_path("mhla_cache_roundtrip.json");
  ResultCache cache;
  cache.insert(7, {256, 0, "greedy", true, 10.0, 20.0});
  cache.save(path);
  ResultCache loaded;
  loaded.load(path);
  EXPECT_EQ(loaded.entries(), cache.entries());
  std::remove(path.c_str());
}

TEST(ResultCache, MissingFileIsACleanColdCache) {
  ResultCache cache;
  ResultCache::LoadReport report = cache.load(temp_path("mhla_cache_never_written.json"));
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, MalformedFileSalvagesIntactEntriesAndQuarantines) {
  // A document truncated mid-write: the header and the last entry line are
  // damaged, one entry line is complete.  Load must recover the intact
  // entry instead of throwing the warm cache away, and must preserve the
  // wreckage for inspection.
  std::string path = temp_path("mhla_cache_corrupt.json");
  ResultCache full;
  full.insert(7, {256, 0, "greedy", true, 10.0, 20.0});
  std::string intact_line;
  {
    std::istringstream doc(full.to_json());
    std::string line;
    while (std::getline(doc, line)) {
      if (line.find("\"key\"") != std::string::npos) intact_line = line;
    }
  }
  ASSERT_FALSE(intact_line.empty());
  std::ofstream(path) << "{\"version\": 1, \"entries\": [oops\n"
                      << intact_line << "\n"
                      << "    {\"key\": \"00000000000000";  // truncated entry

  ResultCache salvaged;
  ResultCache::LoadReport report = salvaged.load(path);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.salvaged, 1u);
  EXPECT_NE(report.message.find(path), std::string::npos) << report.message;
  EXPECT_EQ(salvaged.entries(), full.entries());

  // The damaged original is quarantined byte for byte next to the cache.
  ASSERT_EQ(report.quarantine_path, path + ".quarantine");
  EXPECT_NE(slurp(report.quarantine_path).find(intact_line), std::string::npos);

  std::remove(path.c_str());
  std::remove(report.quarantine_path.c_str());
}

TEST(ResultCache, WellFormedLoadReportsClean) {
  std::string path = temp_path("mhla_cache_clean.json");
  ResultCache cache;
  cache.insert(3, {128, 0, "bnb", false, 1.0, 2.0});
  cache.save(path);
  ResultCache loaded;
  ResultCache::LoadReport report = loaded.load(path);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.entries, 1u);
  EXPECT_EQ(report.salvaged, 0u);
  EXPECT_EQ(loaded.entries(), cache.entries());
  std::remove(path.c_str());
}

// --- The cacheability guard lives in the cache itself ------------------------

TEST(CacheStatusGuard, RefusesNonCompletedResults) {
  ResultCache cache;
  EXPECT_TRUE(cache.insert(1, entry_for(1, assign::SearchStatus::Optimal)));
  EXPECT_TRUE(cache.insert(2, entry_for(2, assign::SearchStatus::Feasible)));
  // A budget-truncated or infeasible result must be dropped by the cache
  // itself, not just by well-behaved callers: a truncated value depends on
  // knobs the key normalizes away and would poison every later lookup.
  EXPECT_FALSE(cache.insert(3, entry_for(3, assign::SearchStatus::BudgetExhausted)));
  EXPECT_FALSE(cache.insert(4, entry_for(4, assign::SearchStatus::Infeasible)));
  EXPECT_EQ(cache.size(), 2u);
  CacheEntry out;
  EXPECT_FALSE(cache.lookup(3, out));
  EXPECT_FALSE(cache.lookup(4, out));
  EXPECT_EQ(cache.stats().rejected, 2u);

  // An overwrite attempt with a truncated result must not clobber the
  // completed entry either.
  EXPECT_FALSE(cache.insert(1, entry_for(1, assign::SearchStatus::BudgetExhausted)));
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out.status, assign::SearchStatus::Optimal);
}

TEST(CacheStatusGuard, StatusRoundTripsAndPreStatusDocumentsLoadFeasible) {
  ResultCache cache;
  cache.insert(7, entry_for(7, assign::SearchStatus::Optimal));
  ResultCache reloaded;
  reloaded.load_json(cache.to_json());
  EXPECT_EQ(reloaded.entries().at(7).status, assign::SearchStatus::Optimal);
  EXPECT_EQ(reloaded.entries(), cache.entries());

  // A document written before entries carried a status (the pre-status
  // format) loads as Feasible — the contract those entries were cached
  // under — instead of being dropped or failing the parse.
  const std::string legacy =
      "{\n  \"version\": 1,\n  \"entries\": [\n"
      "    {\"key\": \"000000000000002a\", \"l1_bytes\": 256, \"l2_bytes\": 0,"
      " \"strategy\": \"greedy\", \"with_te\": true, \"cycles\": 10.0,"
      " \"energy_nj\": 20.0}\n  ]\n}";
  ResultCache migrated;
  migrated.load_json(legacy);
  ASSERT_EQ(migrated.entries().count(42), 1u);
  EXPECT_EQ(migrated.entries().at(42).status, assign::SearchStatus::Feasible);
}

/// Completed entries whose cost pair is impossible: NaN, either infinity,
/// or negative, in either field.
std::vector<CacheEntry> impossible_entries() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<CacheEntry> entries;
  for (double bad : {nan, inf, -inf, -1.0, -4.7e19}) {
    CacheEntry cycles = entry_for(entries.size() + 10, assign::SearchStatus::Optimal);
    cycles.cycles = bad;
    entries.push_back(cycles);
    CacheEntry energy = entry_for(entries.size() + 10, assign::SearchStatus::Feasible);
    energy.energy_nj = bad;
    entries.push_back(energy);
  }
  return entries;
}

TEST(CacheStatusGuard, RefusesImpossibleCosts) {
  ResultCache cache;
  ASSERT_TRUE(cache.insert(1, entry_for(1)));
  std::vector<CacheEntry> bad = impossible_entries();
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_FALSE(cacheable(bad[i]));
    EXPECT_FALSE(cache.insert(100 + i, bad[i]));
    // Nor may an impossible value overwrite a good entry.
    EXPECT_FALSE(cache.insert(1, bad[i]));
  }
  EXPECT_EQ(cache.size(), 1u);
  CacheEntry out;
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out, entry_for(1));
  EXPECT_EQ(cache.stats().rejected, 2 * bad.size());

  // Zero is a possible cost.
  CacheEntry zero = entry_for(2);
  zero.cycles = 0.0;
  zero.energy_nj = 0.0;
  EXPECT_TRUE(cache.insert(2, zero));
}

TEST(CacheStatusGuard, DocumentWithAnImpossibleCostLoadsWithoutIt) {
  // The overflowed 3000-nest reproducer's energy: a "feasible" entry with
  // a negative cost must not survive a load or a merge.
  const std::string text =
      "{\n  \"version\": 1,\n  \"entries\": [\n"
      "    {\"key\": \"000000000000002a\", \"l1_bytes\": 256, \"l2_bytes\": 0,"
      " \"strategy\": \"greedy\", \"with_te\": true, \"status\": \"feasible\","
      " \"cycles\": 10.0, \"energy_nj\": 20.0},\n"
      "    {\"key\": \"000000000000002b\", \"l1_bytes\": 256, \"l2_bytes\": 0,"
      " \"strategy\": \"greedy\", \"with_te\": false, \"status\": \"feasible\","
      " \"cycles\": 10.0, \"energy_nj\": -4.7e19}\n  ]\n}";
  ResultCache parsed;
  parsed.load_json(text);
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.entries().count(0x2a), 1u);
  EXPECT_EQ(parsed.entries().count(0x2b), 0u);

  std::string path = temp_path("mhla_impossible_cost.json");
  {
    std::ofstream out(path);
    out << text << "\n";
  }
  ResultCache loaded;
  ResultCache::LoadReport report = loaded.load(path);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.entries, 1u);
  EXPECT_EQ(loaded.entries(), parsed.entries());
  std::remove(path.c_str());
}

// --- Bounds: LRU eviction above the cap, a hard floor below ------------------

TEST(ResultCache, EvictsLeastRecentlyUsedPastTheCap) {
  // A cap of 4 per stripe; keys on one stripe make its LRU order observable.
  ResultCache cache({/*max_entries=*/4 * ResultCache::kStripes, /*evict_floor=*/0});
  const std::vector<std::uint64_t> keys = keys_on_one_stripe(5);
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(cache.insert(keys[i], entry_for(keys[i])));

  // Touch keys[0] so keys[1] is now the cold tail.
  CacheEntry out;
  ASSERT_TRUE(cache.lookup(keys[0], out));
  EXPECT_EQ(out, entry_for(keys[0]));

  ASSERT_TRUE(cache.insert(keys[4], entry_for(keys[4])));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.lookup(keys[1], out)) << "cold tail should have been evicted";
  EXPECT_TRUE(cache.lookup(keys[0], out)) << "recently used entry must survive";
  EXPECT_TRUE(cache.lookup(keys[4], out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, OverwriteDoesNotGrowOrEvict) {
  ResultCache cache({/*max_entries=*/2 * ResultCache::kStripes, /*evict_floor=*/0});
  const std::vector<std::uint64_t> keys = keys_on_one_stripe(2);
  ASSERT_TRUE(cache.insert(keys[0], entry_for(keys[0])));
  ASSERT_TRUE(cache.insert(keys[1], entry_for(keys[1])));
  CacheEntry updated = entry_for(keys[0]);
  updated.cycles = 999.0;
  ASSERT_TRUE(cache.insert(keys[0], updated));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  CacheEntry out;
  ASSERT_TRUE(cache.lookup(keys[0], out));
  EXPECT_EQ(out.cycles, 999.0);
}

TEST(ResultCache, EvictionNeverDropsBelowTheFloorUnderContention) {
  const std::size_t kFloor = 24;
  // Cap below the floor: the floor wins, so this is the worst-case eviction
  // pressure — every insert past the cap wants to evict and the floor must
  // hold under any interleaving.
  ResultCache cache({/*max_entries=*/8, /*evict_floor=*/kFloor});

  // Warm past the floor, then hammer it from writers while readers assert
  // the floor invariant on every observation.
  for (std::uint64_t key = 0; key < kFloor; ++key) ASSERT_TRUE(cache.insert(key, entry_for(key)));
  ASSERT_GE(cache.size(), kFloor);

  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 2000; ++i) {
        std::uint64_t key = 1000 + static_cast<std::uint64_t>(t) * 10000 + i;
        cache.insert(key, entry_for(key));
        if (cache.size() < kFloor) violated.store(true);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      if (cache.size() < kFloor) violated.store(true);
      CacheEntry out;
      cache.lookup(3, out);  // recency churn while evictions race
    }
  });
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  reader.join();

  EXPECT_FALSE(violated.load()) << "cache shrank below the eviction floor";
  EXPECT_GE(cache.size(), kFloor);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// --- Concurrent property: N threads vs the sequential model ------------------

TEST(ResultCache, ConcurrentInsertsAndLookupsMatchReferenceModel) {
  const int kThreads = 8;
  const std::uint64_t kKeys = 512;
  ResultCache cache;

  // Every thread inserts every key (same derived value — the oracle) in a
  // different order and verifies whatever it reads back.
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        std::uint64_t key = (i * 2654435761u + static_cast<std::uint64_t>(t)) % kKeys;
        cache.insert(key, entry_for(key));
        CacheEntry out;
        if (cache.lookup(key, out) && !(out == entry_for(key))) wrong_value.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(wrong_value.load());

  // The sequential reference model: the same inserts in any order.
  EntryMap reference;
  for (std::uint64_t key = 0; key < kKeys; ++key) reference[key] = entry_for(key);
  EXPECT_EQ(cache.entries(), reference);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.shards, ResultCache::kStripes);
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kThreads) * kKeys);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * kKeys);
}

// --- Merge convergence -------------------------------------------------------

TEST(ResultCache, MergeFromShardsConvergesOnTheReferenceMerge) {
  ResultCache shard_a, shard_b;
  EntryMap reference;
  for (std::uint64_t key = 0; key < 40; ++key) shard_a.insert(key, entry_for(key));
  for (std::uint64_t key = 20; key < 60; ++key) {
    // The later shard wins the overlap.
    CacheEntry entry = entry_for(key);
    entry.cycles += 1.0;
    shard_b.insert(key, entry);
  }
  for (std::uint64_t key = 0; key < 60; ++key) {
    reference[key] = entry_for(key);
    if (key >= 20) reference[key].cycles += 1.0;
  }

  ResultCache cache;
  cache.merge_from(shard_a);
  cache.merge_from(shard_b);
  cache.merge_from(cache);  // self-merge is a no-op
  EXPECT_EQ(cache.entries(), reference);

  // Cache-to-cache merge of a merged cache (one server adopting another
  // server's in-memory cache).
  ResultCache other;
  other.merge_from(cache);
  EXPECT_EQ(other.entries(), reference);
}

// --- Crash-safe persistence --------------------------------------------------

TEST(ResultCache, SaveCrashNeverLosesThePersistedDocument) {
  std::string path = temp_path("mhla_ccache_crash.json");
  ResultCache cache;
  for (std::uint64_t key = 0; key < 8; ++key) ASSERT_TRUE(cache.insert(key, entry_for(key)));
  cache.save(path);
  const std::string persisted = slurp(path);

  ASSERT_TRUE(cache.insert(100, entry_for(100)));

  // Kill the save at each of its I/O steps (open, write+flush, rename);
  // the previously persisted document must survive byte-identically.
  for (long nth = 1; nth <= 3; ++nth) {
    SCOPED_TRACE("I/O fault at step " + std::to_string(nth));
    core::ScopedFault fault(core::FaultInjector::Site::IoWrite, nth);
    EXPECT_THROW(cache.save(path), std::runtime_error);
    EXPECT_EQ(slurp(path), persisted);
  }

  // A crash-interrupted periodic save must leave save_if_dirty dirty, so
  // the next tick retries instead of believing the failed pass.
  {
    core::ScopedFault fault(core::FaultInjector::Site::IoWrite, 2);
    EXPECT_THROW(cache.save_if_dirty(path), std::runtime_error);
  }
  EXPECT_TRUE(cache.save_if_dirty(path));
  ResultCache reloaded;
  ResultCache::LoadReport report = reloaded.load(path);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(reloaded.entries(), cache.entries());
  std::remove(path.c_str());
}

TEST(ResultCache, SaveIfDirtySkipsWhenNothingChanged) {
  std::string path = temp_path("mhla_ccache_dirty.json");
  ResultCache cache;
  ASSERT_TRUE(cache.insert(1, entry_for(1)));
  EXPECT_TRUE(cache.save_if_dirty(path));
  EXPECT_FALSE(cache.save_if_dirty(path)) << "clean cache must skip the I/O";
  ASSERT_TRUE(cache.insert(2, entry_for(2)));
  EXPECT_TRUE(cache.save_if_dirty(path));
  EXPECT_EQ(cache.stats().saves, 2u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadSalvagesDamagedDocumentsIntoAWarmCache) {
  std::string path = temp_path("mhla_ccache_salvage.json");
  ResultCache seed;
  seed.insert(1, entry_for(1));
  seed.insert(2, entry_for(2));
  seed.save(path);

  // Truncate mid-document inside the second entry's line: the first entry
  // line stays intact and must be salvaged, next to what the cache held.
  std::string document = slurp(path);
  std::size_t second_entry = document.find("\"key\"", document.find("\"key\"") + 1);
  ASSERT_NE(second_entry, std::string::npos);
  std::ofstream(path, std::ios::trunc) << document.substr(0, second_entry);

  ResultCache cache;
  ASSERT_TRUE(cache.insert(9, entry_for(9)));
  ResultCache::LoadReport report = cache.load(path);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.salvaged, 1u);
  EXPECT_EQ(cache.entries(), (EntryMap{{1, entry_for(1)}, {9, entry_for(9)}}));
  std::filesystem::remove(path);
  std::filesystem::remove(report.quarantine_path);
}

// --- The explorer over the cache ---------------------------------------------

TEST(ResultCache, ExplorerWarmReplayHasZeroEvaluations) {
  ExplorerConfig config;
  config.l1_axis = {128, 256, 512, 1024, 2048};
  config.l2_axis = {0, 8192};
  config.pipeline.platform = mhla::testing::small_platform();
  Explorer explorer(config);
  ir::Program program = mhla::testing::blocked_reuse_program();

  ResultCache cache;
  ExploreResult cold = explorer.run(program, cache);
  EXPECT_GT(cold.evaluations, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cache.size(), cold.evaluations);

  // Warm replay: identical samples, zero pipeline runs.
  ExploreResult warm = explorer.run(program, cache);
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, warm.samples.size());
  ASSERT_EQ(warm.samples.size(), cold.samples.size());
  for (std::size_t i = 0; i < warm.samples.size(); ++i) {
    EXPECT_EQ(warm.samples[i].point.cycles, cold.samples[i].point.cycles);
    EXPECT_EQ(warm.samples[i].point.energy_nj, cold.samples[i].point.energy_nj);
  }
  ASSERT_EQ(warm.frontier.size(), cold.frontier.size());
  for (std::size_t i = 0; i < warm.frontier.size(); ++i) {
    EXPECT_EQ(warm.frontier[i].cycles, cold.frontier[i].cycles);
    EXPECT_EQ(warm.frontier[i].energy_nj, cold.frontier[i].energy_nj);
  }
}

}  // namespace
}  // namespace mhla::xplore
