// Concurrent result-cache throughput: how the lock-striped ResultCache
// behind mhla_serve scales with reader/writer threads, and what bounded LRU
// eviction costs on the insert path.
//
// The interesting comparisons:
//   * Lookup/Insert at ->Threads(1..8): per-op time should stay roughly flat
//     as threads grow (stripes contend only on key collisions).
//   * BoundedInsert vs Insert: the eviction bookkeeping (LRU splice + floor
//     CAS) on every insert past the cap.
//   * Entries: the periodic persister's pause — what save_if_dirty pays
//     before any I/O happens.

#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "explore/cache.h"

namespace {

using namespace mhla;
using xplore::CacheEntry;

CacheEntry entry_for(std::uint64_t key) {
  CacheEntry entry;
  entry.l1_bytes = static_cast<xplore::i64>(128 + key % 4096);
  entry.l2_bytes = static_cast<xplore::i64>(key % 3 ? 8192 : 0);
  entry.strategy = "greedy";
  entry.with_te = true;
  entry.cycles = static_cast<double>(key) * 1.5;
  entry.energy_nj = static_cast<double>(key) * 2.5;
  entry.status = assign::SearchStatus::Feasible;
  return entry;
}

constexpr std::uint64_t kWorkingSet = 4096;

/// Per-thread key stream: fixed-stride walks with different offsets, so
/// threads touch the same working set but rarely the same key at once.
std::uint64_t nth_key(int thread, std::uint64_t i) {
  return (i * 2654435761u + static_cast<std::uint64_t>(thread) * 7919u) % kWorkingSet;
}

void ResultCacheLookup(benchmark::State& state) {
  static xplore::ResultCache cache;
  if (state.thread_index() == 0) {
    for (std::uint64_t key = 0; key < kWorkingSet; ++key) cache.insert(key, entry_for(key));
  }
  std::uint64_t i = 0;
  CacheEntry out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(nth_key(state.thread_index(), i++), out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ResultCacheLookup)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

void ResultCacheInsert(benchmark::State& state) {
  static xplore::ResultCache cache;
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::uint64_t key = nth_key(state.thread_index(), i++);
    benchmark::DoNotOptimize(cache.insert(key, entry_for(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ResultCacheInsert)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

/// Bounded cache under eviction pressure: cap at half the working set, so
/// roughly every other insert pays the LRU eviction + floor CAS.
void ResultCacheBoundedInsert(benchmark::State& state) {
  static xplore::ResultCache cache(
      {/*max_entries=*/kWorkingSet / 2, /*evict_floor=*/kWorkingSet / 4});
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::uint64_t key = nth_key(state.thread_index(), i++);
    benchmark::DoNotOptimize(cache.insert(key, entry_for(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ResultCacheBoundedInsert)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

/// The persister's synchronous cost: copying every stripe into the sorted
/// view that the crash-safe saver serializes.
void ResultCacheEntries(benchmark::State& state) {
  xplore::ResultCache cache;
  for (std::uint64_t key = 0; key < kWorkingSet; ++key) cache.insert(key, entry_for(key));
  for (auto _ : state) benchmark::DoNotOptimize(cache.entries().size());
  state.SetItemsProcessed(state.iterations() * kWorkingSet);
}
BENCHMARK(ResultCacheEntries);

/// Scaling table: mixed lookup/insert operations per second over thread
/// counts — the headline number for the striping in mhla_serve's hot path
/// (flat per-thread rate = no contention).  One run of a thread count.
template <typename Op>
double ops_per_second(int threads, Op op) {
  constexpr std::uint64_t kOpsPerThread = 200'000;
  std::vector<std::thread> pool;
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, &op] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) op(t, i);
    });
  }
  for (std::thread& thread : pool) thread.join();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(kOpsPerThread) * threads / seconds;
}

void print_scaling_report() {
  bench::print_header(
      "Concurrent result-cache scaling (mhla_serve hot path)",
      "lock-striped cache keeps per-thread throughput flat as server workers grow");

  xplore::ResultCache cache;
  for (std::uint64_t key = 0; key < kWorkingSet; ++key) cache.insert(key, entry_for(key));

  // One run of a thread count swings by 2x on a shared machine, so each
  // count is run kRuns times and reported as median and interquartile range.
  constexpr int kRuns = 5;
  std::printf("%8s  %14s  %14s  %18s\n", "threads", "median ops/s", "IQR ops/s",
              "median per thread");
  for (int threads : {1, 2, 4, 8}) {
    std::vector<double> rates;
    for (int run = 0; run < kRuns; ++run) {
      rates.push_back(ops_per_second(threads, [&](int t, std::uint64_t i) {
        CacheEntry out;
        std::uint64_t key = nth_key(t, i);
        if (i % 8 == 0) {
          cache.insert(key, entry_for(key));
        } else {
          benchmark::DoNotOptimize(cache.lookup(key, out));
        }
      }));
    }
    std::sort(rates.begin(), rates.end());
    // Quartiles of five sorted runs: the 2nd and 4th values.
    double median = rates[kRuns / 2];
    double iqr = rates[3 * kRuns / 4] - rates[kRuns / 4];
    std::printf("%8d  %14.0f  %14.0f  %18.0f\n", threads, median, iqr, median / threads);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_scaling_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
