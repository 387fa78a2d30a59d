// Search-engine scaling: how fast the MHLA step-1 searches run on the
// incremental CostEngine (apply/undo delta evaluation + branch-and-bound)
// versus the from-scratch oracles of tests/oracles/, which score every
// state with oracles::estimate_cost.  The report covers, in order: greedy
// against oracles::greedy_reference on every app, tracker-backed fits()
// against the from-scratch footprint rebuild, the batched-scoring data
// layout and its steady-state allocation count, bnb against the un-pruned
// oracles::exhaustive_reference, bnb-par thread scaling on a guard-64
// instance, and the layer-size sweep serial against parallel.
//
// The reproduction block prints per-app wall-clock and evaluation-rate
// comparisons plus a machine-readable JSON object; the google-benchmark
// timers below repeat the measurements under its statistics (use
// --benchmark_out=<file> --benchmark_out_format=json for the standard
// BENCH JSON — stdout also carries the report block).

#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <sstream>

#include "assign/cost_engine.h"
#include "assign/footprint_tracker.h"
#include "assign/search.h"
#include "core/json_report.h"
#include "core/work_stealing.h"
#include "ir/builder.h"
#include "oracles/oracles.h"

// ---- binary-wide allocation counter for the data-layout block -------------
// Replacing the global operator new/delete with counting forms lets the
// steady-state measurement report exact heap allocations per engine move
// (the data_layout JSON block CI asserts to be zero).  malloc plus a relaxed
// atomic tick keeps the overhead far below timer noise.

// noinline keeps GCC from pairing an inlined malloc-backed new with an
// inlined free-backed delete at call sites (-Wmismatched-new-delete).
#if defined(__GNUC__)
#define MHLA_BENCH_NOINLINE __attribute__((noinline))
#else
#define MHLA_BENCH_NOINLINE
#endif

namespace {
std::atomic<long> g_heap_allocs{0};

MHLA_BENCH_NOINLINE void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p) g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

MHLA_BENCH_NOINLINE void counted_free(void* p) { std::free(p); }
}  // namespace

MHLA_BENCH_NOINLINE void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
MHLA_BENCH_NOINLINE void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
MHLA_BENCH_NOINLINE void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
MHLA_BENCH_NOINLINE void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
MHLA_BENCH_NOINLINE void operator delete(void* p) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete[](void* p) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
MHLA_BENCH_NOINLINE void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
MHLA_BENCH_NOINLINE void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

using namespace mhla;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Medium instance both exhaustive searches accept (20 placements, well
/// under the oracle's guard) whose search space exceeds the
/// rate-measurement budget.
ir::Program rate_program() {
  ir::ProgramBuilder pb("rate");
  pb.array("a", {32, 16}, 4).input();
  pb.array("b", {16}, 4).input();
  pb.array("o", {32}, 4).output();
  pb.begin_loop("i", 0, 32);
  pb.begin_loop("r", 0, 4);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 2).read("a", {ir::av("i"), ir::av("j")}).read("b", {ir::av("j")});
  pb.end_loop();
  pb.end_loop();
  pb.stmt("e", 1).write("o", {ir::av("i")});
  pb.end_loop();
  return pb.finish();
}

mem::PlatformConfig rate_platform() {
  mem::PlatformConfig platform;
  platform.l1_bytes = 512;
  platform.l2_bytes = 4096;
  return platform;
}

/// The guard-64 rate instance for the parallel branch-and-bound curve:
/// three blocked 2D streams with per-block reuse plus three reused tables —
/// 26 candidates x 2 on-chip layers = 52 placements, close to the engine
/// guard, with a ~10M-state exact search space.
ir::Program guard64_program() {
  ir::ProgramBuilder pb("guard64");
  pb.array("a", {32, 16}, 4).input();
  pb.array("b", {16}, 4).input();
  pb.array("c", {32, 16}, 4).input();
  pb.array("d", {24}, 4).input();
  pb.array("e", {32, 16}, 4).input();
  pb.array("f", {48}, 4).input();
  pb.array("o", {32}, 4).output();
  pb.begin_loop("i", 0, 32);
  pb.begin_loop("r", 0, 4);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 2).read("a", {ir::av("i"), ir::av("j")}).read("b", {ir::av("j")});
  pb.stmt("t", 2).read("c", {ir::av("i"), ir::av("j")}).read("d", {ir::av("j")});
  pb.stmt("u", 2).read("e", {ir::av("i"), ir::av("j")}).read("f", {ir::av("j", 3)});
  pb.end_loop();
  pb.end_loop();
  pb.stmt("g", 1).write("o", {ir::av("i")});
  pb.end_loop();
  return pb.finish();
}

mem::PlatformConfig guard64_platform() {
  mem::PlatformConfig platform;
  platform.l1_bytes = 640;
  platform.l2_bytes = 4096;
  return platform;
}

constexpr long kRateBudget = 50000;

struct GreedyRow {
  std::string app;
  double reference_s = 0.0;
  double engine_s = 0.0;
  int evaluations = 0;
};

struct FeasibilityRow {
  std::string app;
  long probes = 0;          ///< fits() calls per timed pass
  double scratch_s = 0.0;   ///< from-scratch compute_footprints per probe
  double tracker_s = 0.0;   ///< FootprintTracker place/feasible/undo per probe
};

/// The greedy hot loop distilled: probe "would this copy placement still
/// fit?" for every (unselected candidate, on-chip layer) pair on top of the
/// app's final greedy assignment.  The scratch pass clones the assignment
/// and rebuilds the whole usage matrix per probe — exactly what
/// `fits(ctx, next)` paid before this PR; the tracker pass answers the same
/// probes with place/feasible/undo deltas.
FeasibilityRow measure_feasibility(const apps::AppInfo& info) {
  FeasibilityRow row;
  row.app = info.name;
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  const assign::Assignment& base = greedy.assignment;
  const int background = ctx.hierarchy.background();

  std::vector<std::pair<int, int>> probes;  // (cc_id, layer)
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems <= 0 || base.has_copy(cc.id)) continue;
    for (int layer = 0; layer < background; ++layer) probes.emplace_back(cc.id, layer);
  }

  constexpr int kRepeats = 20;
  long verdicts_scratch = 0;
  auto t0 = Clock::now();
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (auto [cc_id, layer] : probes) {
      assign::Assignment next = base;
      next.copies.push_back({cc_id, layer});
      verdicts_scratch += assign::fits(ctx, next) ? 1 : 0;
    }
  }
  row.scratch_s = seconds_since(t0);

  assign::FootprintTracker tracker(ctx, base);
  long verdicts_tracker = 0;
  t0 = Clock::now();
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (auto [cc_id, layer] : probes) {
      assign::FootprintTracker::Checkpoint cp = tracker.checkpoint();
      tracker.place_copy(cc_id, layer);
      verdicts_tracker += tracker.feasible() ? 1 : 0;
      tracker.undo_to(cp);
    }
  }
  row.tracker_s = seconds_since(t0);
  row.probes = static_cast<long>(probes.size()) * kRepeats;
  if (verdicts_scratch != verdicts_tracker) {
    std::cout << "WARNING: feasibility verdict mismatch on " << info.name << "\n";
  }
  return row;
}

struct DataLayoutRow {
  std::string app;
  long moves = 0;              ///< accepted greedy moves
  double batched_s = 0.0;      ///< greedy end-to-end, batched round scoring
  long steady_allocs = 0;      ///< heap allocations across one full move replay
  long allocs_per_move = 0;    ///< steady_allocs / moves (CI asserts 0)
};

/// The data-layout measurements: greedy end-to-end (batched round scoring),
/// and the steady-state heap-allocation count of replaying the accepted
/// move trail on a warmed-up engine (the SoA tables, scorer scratch, and
/// arena journals make it zero by construction).
DataLayoutRow measure_data_layout(const apps::AppInfo& info) {
  DataLayoutRow row;
  row.app = info.name;
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();

  constexpr int kRepeats = 10;
  assign::SearchResult batched;
  auto t0 = Clock::now();
  for (int rep = 0; rep < kRepeats; ++rep) {
    batched = assign::searcher("greedy").search(ctx, {});
  }
  row.batched_s = seconds_since(t0) / kRepeats;
  row.moves = static_cast<long>(batched.moves.size());

  // Steady-state allocations: replay the accepted trail on a prebuilt
  // engine.  The first replay fills every lazy high-water mark; the counted
  // replay must then stay entirely inside the setup-time reservations.
  assign::CostEngine engine(ctx);
  auto replay = [&]() {
    for (const assign::GreedyMove& move : batched.moves) {
      switch (move.kind) {
        case assign::GreedyMove::Kind::SelectCopy:
          engine.select_copy(move.cc_id, move.layer);
          break;
        case assign::GreedyMove::Kind::MigrateArray:
          engine.migrate_array(engine.array_id(move.array), move.layer);
          break;
        case assign::GreedyMove::Kind::RemoveCopy:
          engine.remove_copy(move.cc_id);
          break;
      }
    }
    engine.undo_to(0);
  };
  replay();  // warm-up
  long before = g_heap_allocs.load(std::memory_order_relaxed);
  replay();
  row.steady_allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  row.allocs_per_move = row.moves > 0 ? row.steady_allocs / row.moves : row.steady_allocs;
  return row;
}

void print_scaling_report() {
  bench::print_header("Search scaling: incremental cost engine + parallel sweep",
                      "fast, accurate and automatic exploration (tool-speed claim)");

  // --- Greedy: engine vs from-scratch, every app of the registry.
  std::vector<GreedyRow> rows;
  core::Table table({"application", "cost evals", "scratch ms", "engine ms", "speedup",
                     "engine evals/s"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
    auto ctx = ws->context();
    assign::SearchOptions options;

    auto t0 = Clock::now();
    assign::SearchResult slow = oracles::greedy_reference(ctx);
    double reference_s = seconds_since(t0);
    t0 = Clock::now();
    assign::SearchResult fast = assign::searcher("greedy").search(ctx, options);
    double engine_s = seconds_since(t0);

    if (fast.scalar != slow.scalar) {
      std::cout << "WARNING: engine/reference scalar mismatch on " << info.name << "\n";
    }
    rows.push_back({info.name, reference_s, engine_s, fast.evaluations});
    table.add_row({info.name, std::to_string(fast.evaluations),
                   core::Table::num(reference_s * 1e3, 2), core::Table::num(engine_s * 1e3, 2),
                   core::Table::num(reference_s / (engine_s > 0 ? engine_s : 1e-9), 1) + "x",
                   core::Table::num(fast.evaluations / (engine_s > 0 ? engine_s : 1e-9), 0)});
  }
  std::cout << table.str() << "\n";

  // --- Feasibility: tracker-backed fits() vs the from-scratch rebuild, on
  // the two largest apps (where fits() dominated greedy's per-candidate
  // cost).
  std::vector<FeasibilityRow> feasibility;
  core::Table feas_table({"application", "probes", "scratch ms", "tracker ms", "fits speedup"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    if (info.name != "motion_estimation" && info.name != "mpeg2_encoder") continue;
    FeasibilityRow row = measure_feasibility(info);
    feas_table.add_row(
        {row.app, std::to_string(row.probes), core::Table::num(row.scratch_s * 1e3, 2),
         core::Table::num(row.tracker_s * 1e3, 2),
         core::Table::num(row.scratch_s / (row.tracker_s > 0 ? row.tracker_s : 1e-9), 1) + "x"});
    feasibility.push_back(std::move(row));
  }
  std::cout << "feasibility (fits() probes on the final greedy assignment):\n"
            << feas_table.str() << "\n";

  // --- Data layout: greedy with batched round scoring, and the
  // steady-state allocation count of the engine move loop (zero once the
  // setup-time reservations hold; the CI bench smoke asserts it).
  std::vector<DataLayoutRow> data_layout;
  core::Table dl_table({"application", "moves", "batched ms", "batched moves/s", "allocs/move"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    if (info.name != "motion_estimation" && info.name != "mpeg2_encoder") continue;
    DataLayoutRow row = measure_data_layout(info);
    dl_table.add_row(
        {row.app, std::to_string(row.moves), core::Table::num(row.batched_s * 1e3, 3),
         core::Table::num(row.moves / (row.batched_s > 0 ? row.batched_s : 1e-9), 0),
         std::to_string(row.allocs_per_move)});
    data_layout.push_back(std::move(row));
  }
  std::cout << "data layout (batched round scoring + arena journals):\n"
            << dl_table.str() << "\n";

  // --- Exhaustive: the from-scratch oracle enumeration against
  // branch-and-bound on the rate instance (same state budget), then
  // branch-and-bound on a medium instance only its raised guard admits.
  auto ws = core::make_workspace(rate_program(), rate_platform(), {});
  auto ctx = ws->context();
  assign::SearchOptions budget_options;
  budget_options.max_states = kRateBudget;

  auto t0 = Clock::now();
  assign::SearchResult reference = oracles::exhaustive_reference(ctx, budget_options);
  double reference_s = seconds_since(t0);
  t0 = Clock::now();
  assign::SearchResult pruned = assign::searcher("bnb").search(ctx, budget_options);
  double engine_s = seconds_since(t0);

  double ref_rate = reference.states_explored / (reference_s > 0 ? reference_s : 1e-9);
  std::cout << "exhaustive (rate instance, budget " << kRateBudget << "): scratch "
            << reference.states_explored << " states, "
            << core::Table::num(reference_s * 1e3, 2) << " ms ("
            << core::Table::num(ref_rate, 0) << " states/s)\n";
  std::cout << "branch-and-bound: " << pruned.states_explored << " states ("
            << pruned.bound_prunes << " bound prunes, " << pruned.capacity_prunes
            << " capacity prunes), " << core::Table::num(engine_s * 1e3, 2) << " ms, "
            << (pruned.status == assign::SearchStatus::Optimal ? "search complete" : "budget hit")
            << ", wall speedup vs scratch "
            << core::Table::num(reference_s / (engine_s > 0 ? engine_s : 1e-9), 1) << "x\n";

  auto medium_ws = core::make_workspace(apps::build_motion_estimation(),
                                        bench::default_platform(), {});
  auto medium_ctx = medium_ws->context();
  assign::SearchOptions medium_options;
  medium_options.max_states = 200000;
  t0 = Clock::now();
  assign::SearchResult medium = assign::searcher("bnb").search(medium_ctx, medium_options);
  double medium_s = seconds_since(t0);
  std::cout << "branch-and-bound (motion_estimation, 46 placements, budget 200k): "
            << medium.states_explored << " states, " << medium.bound_prunes
            << " bound prunes, " << medium.capacity_prunes << " capacity prunes, "
            << (medium.status == assign::SearchStatus::Optimal ? "complete" : "budget hit") << ", "
            << core::Table::num(medium_s * 1e3, 2) << " ms\n";

  // --- Parallel branch-and-bound: thread-count scaling on the guard-64
  // rate instance.  The optimum must be bit-identical at every thread
  // count; wall-clock gains need real cores (the CI container has one).
  auto g64_ws = core::make_workspace(guard64_program(), guard64_platform(), {});
  auto g64_ctx = g64_ws->context();
  assign::SearchOptions g64_options;
  g64_options.max_states = 500'000'000;
  t0 = Clock::now();
  assign::SearchResult g64_serial = assign::searcher("bnb").search(g64_ctx, g64_options);
  double g64_serial_s = seconds_since(t0);
  std::cout << "guard-64 rate instance (52 placements): serial bnb "
            << g64_serial.states_explored << " states, "
            << core::Table::num(g64_serial_s * 1e3, 1) << " ms\n";
  struct ParRow {
    unsigned threads;
    double seconds;
    long states;
  };
  std::vector<ParRow> curve;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    assign::SearchOptions par_options = g64_options;
    par_options.bnb_threads = threads;
    t0 = Clock::now();
    assign::SearchResult par = assign::searcher("bnb-par").search(g64_ctx, par_options);
    double par_s = seconds_since(t0);
    if (par.assignment != g64_serial.assignment || par.scalar != g64_serial.scalar) {
      std::cout << "WARNING: bnb-par optimum mismatch at " << threads << " threads\n";
    }
    curve.push_back({threads, par_s, par.states_explored});
    std::cout << "  bnb-par " << threads << " threads: " << par.states_explored << " states, "
              << core::Table::num(par_s * 1e3, 1) << " ms, speedup vs serial "
              << core::Table::num(g64_serial_s / (par_s > 0 ? par_s : 1e-9), 2) << "x\n";
  }
  std::cout << "\n";

  // --- Sweep: serial vs parallel wall-clock across the app registry.
  unsigned hw = core::default_parallelism();
  double serial_total = 0.0;
  double parallel_total = 0.0;
  for (const apps::AppInfo& info : apps::all_apps()) {
    ir::Program program = info.build();
    xplore::SweepConfig config = xplore::default_sweep();
    config.pipeline.num_threads = 1;
    t0 = Clock::now();
    auto serial = xplore::sweep_layer_sizes(program, config);
    serial_total += seconds_since(t0);
    config.pipeline.num_threads = 0;  // hardware concurrency
    t0 = Clock::now();
    auto parallel = xplore::sweep_layer_sizes(program, config);
    parallel_total += seconds_since(t0);
    if (serial.size() != parallel.size()) {
      std::cout << "WARNING: sweep sample-count mismatch on " << info.name << "\n";
    }
  }
  std::cout << "default_sweep over 9 apps: serial " << core::Table::num(serial_total * 1e3, 1)
            << " ms, parallel (" << hw << " threads) "
            << core::Table::num(parallel_total * 1e3, 1) << " ms, speedup "
            << core::Table::num(serial_total / (parallel_total > 0 ? parallel_total : 1e-9), 2)
            << "x\n\n";

  // --- Machine-readable summary.
  std::ostringstream json;
  json << "{\n  \"bench\": \"search_scaling\",\n  \"meta\": " << bench::run_metadata_json()
       << ",\n  \"greedy\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GreedyRow& row = rows[i];
    json << "    {\"app\": \"" << core::json_escape(row.app) << "\", \"evaluations\": "
         << row.evaluations << ", \"scratch_s\": " << row.reference_s
         << ", \"engine_s\": " << row.engine_s << "}" << (i + 1 < rows.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"feasibility\": [\n";
  for (std::size_t i = 0; i < feasibility.size(); ++i) {
    const FeasibilityRow& row = feasibility[i];
    json << "    {\"app\": \"" << core::json_escape(row.app) << "\", \"probes\": " << row.probes
         << ", \"scratch_s\": " << row.scratch_s << ", \"tracker_s\": " << row.tracker_s << "}"
         << (i + 1 < feasibility.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"exhaustive\": {\"scratch_states\": " << reference.states_explored
       << ", \"scratch_s\": " << reference_s << ", \"bnb_states\": " << pruned.states_explored << ", \"bnb_s\": " << engine_s
       << ", \"bnb_bound_prunes\": " << pruned.bound_prunes
       << ", \"medium_states\": " << medium.states_explored
       << ", \"medium_bound_prunes\": " << medium.bound_prunes
       << ", \"medium_capacity_prunes\": " << medium.capacity_prunes << "},\n"
       << "  \"bnb_par\": {\"placements\": 52, \"serial_s\": " << g64_serial_s
       << ", \"serial_states\": " << g64_serial.states_explored << ", \"curve\": [\n";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    json << "    {\"threads\": " << curve[i].threads << ", \"s\": " << curve[i].seconds
         << ", \"states\": " << curve[i].states << "}" << (i + 1 < curve.size() ? "," : "")
         << "\n";
  }
  json << "  ]},\n"
       << "  \"data_layout\": [\n";
  for (std::size_t i = 0; i < data_layout.size(); ++i) {
    const DataLayoutRow& row = data_layout[i];
    json << "    {\"app\": \"" << core::json_escape(row.app) << "\", \"moves\": " << row.moves
         << ", \"batched_s\": " << row.batched_s << ", \"steady_allocs\": " << row.steady_allocs
         << ", \"allocs_per_move\": " << row.allocs_per_move << "}"
         << (i + 1 < data_layout.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sweep\": {\"threads\": " << hw << ", \"serial_s\": " << serial_total
       << ", \"parallel_s\": " << parallel_total << "}\n}\n";
  std::cout << json.str() << "\n";
}

void BM_GreedyReference(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  int evaluations = 0;
  for (auto _ : state) {
    assign::SearchResult result = oracles::greedy_reference(ctx);
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result);
  }
  state.counters["evals/s"] =
      benchmark::Counter(static_cast<double>(evaluations), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(info.name);
}
const int kLastAppIndex = static_cast<int>(apps::all_apps().size()) - 1;
BENCHMARK(BM_GreedyReference)->DenseRange(0, kLastAppIndex);

void BM_GreedyEngine(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  int evaluations = 0;
  for (auto _ : state) {
    assign::SearchResult result = assign::searcher("greedy").search(ctx, {});
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result);
  }
  state.counters["evals/s"] =
      benchmark::Counter(static_cast<double>(evaluations), benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(info.name);
}
BENCHMARK(BM_GreedyEngine)->DenseRange(0, kLastAppIndex);

void run_exhaustive_bench(benchmark::State& state, const std::string& strategy,
                          const assign::SearchOptions& options) {
  auto ws = core::make_workspace(rate_program(), rate_platform(), {});
  auto ctx = ws->context();
  long states = 0;
  for (auto _ : state) {
    assign::SearchResult result = assign::searcher(strategy).search(ctx, options);
    states = result.states_explored;
    benchmark::DoNotOptimize(result);
  }
  state.counters["states/s"] =
      benchmark::Counter(static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ExhaustiveReference(benchmark::State& state) {
  auto ws = core::make_workspace(rate_program(), rate_platform(), {});
  auto ctx = ws->context();
  assign::SearchOptions options;
  options.max_states = kRateBudget;
  long states = 0;
  for (auto _ : state) {
    assign::SearchResult result = oracles::exhaustive_reference(ctx, options);
    states = result.states_explored;
    benchmark::DoNotOptimize(result);
  }
  state.counters["states/s"] =
      benchmark::Counter(static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExhaustiveReference);

void BM_ExhaustiveBranchAndBound(benchmark::State& state) {
  assign::SearchOptions options;
  options.max_states = kRateBudget;
  run_exhaustive_bench(state, "bnb", options);
}
BENCHMARK(BM_ExhaustiveBranchAndBound);

void BM_BnbParallel(benchmark::State& state) {
  assign::SearchOptions options;
  options.max_states = kRateBudget;
  options.bnb_threads = static_cast<unsigned>(state.range(0));
  run_exhaustive_bench(state, "bnb-par", options);
}
BENCHMARK(BM_BnbParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void run_fits_bench(benchmark::State& state, bool use_tracker) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  assign::Assignment base = assign::greedy_assign(ctx).assignment;
  std::vector<std::pair<int, int>> probes;
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems <= 0 || base.has_copy(cc.id)) continue;
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      probes.emplace_back(cc.id, layer);
    }
  }
  assign::FootprintTracker tracker(ctx, base);
  for (auto _ : state) {
    long feasible = 0;
    for (auto [cc_id, layer] : probes) {
      if (use_tracker) {
        assign::FootprintTracker::Checkpoint cp = tracker.checkpoint();
        tracker.place_copy(cc_id, layer);
        feasible += tracker.feasible() ? 1 : 0;
        tracker.undo_to(cp);
      } else {
        assign::Assignment next = base;
        next.copies.push_back({cc_id, layer});
        feasible += assign::fits(ctx, next) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(feasible);
  }
  state.counters["fits/s"] = benchmark::Counter(static_cast<double>(probes.size()),
                                                benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(info.name);
}

void BM_FitsScratch(benchmark::State& state) { run_fits_bench(state, false); }
BENCHMARK(BM_FitsScratch)->DenseRange(0, kLastAppIndex);

void BM_FitsTracker(benchmark::State& state) { run_fits_bench(state, true); }
BENCHMARK(BM_FitsTracker)->DenseRange(0, kLastAppIndex);

void BM_SweepSerial(benchmark::State& state) {
  ir::Program program = apps::build_motion_estimation();
  xplore::SweepConfig config = xplore::default_sweep();
  config.pipeline.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xplore::sweep_layer_sizes(program, config));
  }
}
BENCHMARK(BM_SweepSerial);

void BM_SweepParallel(benchmark::State& state) {
  ir::Program program = apps::build_motion_estimation();
  xplore::SweepConfig config = xplore::default_sweep();
  config.pipeline.num_threads = 0;  // hardware concurrency
  for (auto _ : state) {
    benchmark::DoNotOptimize(xplore::sweep_layer_sizes(program, config));
  }
}
BENCHMARK(BM_SweepParallel);

}  // namespace

int main(int argc, char** argv) {
  print_scaling_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
