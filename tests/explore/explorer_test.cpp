#include "explore/explorer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analysis/dependence.h"
#include "analysis/lifetime.h"
#include "analysis/reuse.h"
#include "analysis/sites.h"
#include "apps/registry.h"
#include "core/json_report.h"
#include "core/pipeline.h"
#include "core/run_budget.h"
#include "explore/corpus.h"
#include "explore/sweep.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "ir/serialize.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace mhla::xplore {
namespace {

std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Small lattice over the test platform for the cheap structural tests.
ExplorerConfig small_config() {
  ExplorerConfig config;
  config.l1_axis = {128, 256, 512, 1024, 2048};
  config.l2_axis = {0, 8192};
  return config;
}

TEST(Explorer, ValidatesItsConfiguration) {
  ExplorerConfig config = small_config();
  config.l1_axis.clear();
  EXPECT_THROW(Explorer{config}, std::invalid_argument);

  config = small_config();
  config.seed_stride = 0;
  EXPECT_THROW(Explorer{config}, std::invalid_argument);

  config = small_config();
  config.strategies = {"no-such-strategy"};
  EXPECT_THROW(Explorer{config}, std::out_of_range);
}

TEST(Explorer, DuplicateStrategiesCollapseToOneAxisEntry) {
  ExplorerConfig config = small_config();
  config.strategies = {"greedy", "greedy"};
  Explorer explorer(config);
  EXPECT_EQ(explorer.config().strategies.size(), 1u);
  ExploreResult result = explorer.run(testing::blocked_reuse_program());
  EXPECT_EQ(result.lattice_cells, config.l1_axis.size() * config.l2_axis.size());
}

TEST(Explorer, TeAxisCollapsesWithoutADmaEngine) {
  // with_te cannot change any result when no transfer engine exists; the
  // TE axis must not double the lattice (and the budget burn) for nothing.
  ExplorerConfig config = small_config();
  config.explore_te = true;
  config.pipeline.dma.present = false;
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(result.lattice_cells, config.l1_axis.size() * config.l2_axis.size());
}

TEST(Explorer, BudgetOnAWaveBoundaryAddsNoEmptyRound) {
  ExplorerConfig config = small_config();  // seed wave: 3 x 2 = 6 cells
  config.budget = 6;
  ExploreResult exact = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(exact.evaluations, 6u);
  EXPECT_EQ(exact.rounds, 1u);
  EXPECT_TRUE(exact.budget_exhausted);

  config.budget = 5;
  ExploreResult under = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(under.rounds, 1u);
}

TEST(Explorer, BitIdenticalAcrossThreadCounts) {
  ExplorerConfig config = small_config();
  config.pipeline.num_threads = 1;
  ExploreResult serial = Explorer(config).run(testing::blocked_reuse_program());
  ASSERT_FALSE(serial.samples.empty());

  for (unsigned threads : {0u, 4u}) {
    config.pipeline.num_threads = threads;
    ExploreResult parallel = Explorer(config).run(testing::blocked_reuse_program());
    ASSERT_EQ(parallel.samples.size(), serial.samples.size()) << "threads " << threads;
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
      EXPECT_EQ(parallel.samples[i].cell, serial.samples[i].cell);
      EXPECT_EQ(parallel.samples[i].point.cycles, serial.samples[i].point.cycles);
      EXPECT_EQ(parallel.samples[i].point.energy_nj, serial.samples[i].point.energy_nj);
    }
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
    EXPECT_EQ(parallel.rounds, serial.rounds);
    ASSERT_EQ(parallel.frontier.size(), serial.frontier.size());
    for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
      EXPECT_EQ(parallel.frontier[i].cycles, serial.frontier[i].cycles);
      EXPECT_EQ(parallel.frontier[i].energy_nj, serial.frontier[i].energy_nj);
    }
  }
}

TEST(Explorer, BudgetCapsPipelineEvaluations) {
  ExplorerConfig config = small_config();
  config.budget = 4;
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(result.evaluations, 4u);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.samples.size(), 4u);
}

TEST(Explorer, TruncatedLastWaveReportsBudgetExhausted) {
  // Seeding the whole lattice (stride 1) makes the seed wave the only wave;
  // a probe allowance far below one bnb solve truncates every cell in it.
  // The wave loop then runs out of cells rather than out of budget, and the
  // result must still say the exploration was cut short.
  ExplorerConfig config = default_explorer();
  config.pipeline.strategy = "bnb";
  config.pipeline.search.budget.max_probes = 2000;
  config.seed_stride = 1;
  ResultCache cache;
  ExploreResult result = Explorer(config).run(apps::build_app("qsdpcm"), cache);
  EXPECT_EQ(result.evaluations, 27u);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_TRUE(cache.entries().empty()) << "truncated cells must not be cached";
  EXPECT_TRUE(result.budget_exhausted);
}

TEST(Explorer, BudgetRunningOutInsideTimeExtensionKeepsTheCellUncached) {
  // One cell, time extension on.  A probe allowance of exactly the search's
  // own probes lets the search finish, then expires at the first probe of
  // the TE pass: the cell's mhla_te point is truncated and must not reach
  // the cache, although its search completed.
  const ir::Program program = apps::build_app("qsdpcm");
  ExplorerConfig config;
  ASSERT_TRUE(config.pipeline.dma.present);
  config.l1_axis = {config.pipeline.platform.l1_bytes};
  config.l2_axis = {config.pipeline.platform.l2_bytes};

  const core::ProgramAnalysis analysis(program);
  core::RunBudget search_only;  // unlimited: only counts
  core::PipelineConfig cell = config.pipeline;
  cell.search.shared_budget = &search_only;
  core::evaluate_cell(analysis, cell, core::PointRequest::canonical(false));
  core::RunBudget with_te;
  cell.search.shared_budget = &with_te;
  core::evaluate_cell(analysis, cell, core::PointRequest::canonical(true));
  ASSERT_GT(search_only.probes(), 0);
  ASSERT_GT(with_te.probes(), search_only.probes()) << "the TE pass must probe";

  ResultCache unbudgeted;
  Explorer(config).run(program, unbudgeted);
  EXPECT_EQ(unbudgeted.entries().size(), 1u);

  config.pipeline.search.budget.max_probes = search_only.probes();
  ResultCache cache;
  ExploreResult result = Explorer(config).run(program, cache);
  EXPECT_EQ(result.evaluations, 1u);
  EXPECT_TRUE(cache.entries().empty()) << "a TE-truncated cell must not be cached";
  EXPECT_TRUE(result.budget_exhausted);
}

TEST(Explorer, AnytimeFrontierIsValidUnderAnyBudget) {
  ExplorerConfig config = small_config();
  for (std::size_t budget : {1u, 3u, 7u}) {
    config.budget = budget;
    ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
    EXPECT_LE(result.evaluations, budget);
    EXPECT_FALSE(result.frontier.empty());
    for (const TradeoffPoint& f : result.frontier) {
      bool matches_sample = false;
      for (const ExploreSample& s : result.samples) {
        if (s.point.cycles == f.cycles && s.point.energy_nj == f.energy_nj) matches_sample = true;
      }
      EXPECT_TRUE(matches_sample);
    }
  }
}

TEST(Explorer, JointSpaceCoversStrategyAndTeAxes) {
  ExplorerConfig config = small_config();
  config.l1_axis = {256, 1024};
  config.strategies = {"greedy", "anneal"};
  config.pipeline.search.anneal_iterations = 200;
  config.explore_te = true;
  config.seed_stride = 1;  // full lattice
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(result.lattice_cells, 2u * 2u * 2u * 2u);
  EXPECT_EQ(result.samples.size(), result.lattice_cells);
  std::size_t anneal_cells = 0;
  std::size_t te_off_cells = 0;
  for (const ExploreSample& sample : result.samples) {
    anneal_cells += sample.cell.strategy == "anneal";
    te_off_cells += !sample.cell.with_te;
  }
  EXPECT_EQ(anneal_cells, result.lattice_cells / 2);
  EXPECT_EQ(te_off_cells, result.lattice_cells / 2);

  // Every frontier point carries its full cell coordinates, so a joint-
  // space run can say which strategy/TE setting achieved it.
  ASSERT_EQ(result.frontier_cells.size(), result.frontier.size());
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    bool matches = false;
    for (const ExploreSample& sample : result.samples) {
      if (sample.cell == result.frontier_cells[i] &&
          sample.point.cycles == result.frontier[i].cycles &&
          sample.point.energy_nj == result.frontier[i].energy_nj) {
        matches = true;
      }
    }
    EXPECT_TRUE(matches) << i;
  }
}

TEST(Explorer, HalfBudgetFrontierDominatesDefaultSweepOnTwoApps) {
  // The acceptance bar of the exploration engine: on real applications,
  // adaptive refinement recovers the full fixed grid's frontier from at
  // most half the grid's pipeline evaluations.
  for (const char* app : {"cavity_detection", "fft_filter"}) {
    ir::Program program = apps::build_app(app);

    SweepConfig grid = default_sweep();
    std::vector<SweepSample> samples = sweep_layer_sizes(program, grid);
    std::vector<TradeoffPoint> grid_front = frontier(samples);

    ExplorerConfig config = default_explorer();
    config.budget = samples.size() / 2;
    ExploreResult adaptive = Explorer(config).run(program);

    EXPECT_LE(adaptive.evaluations, samples.size() / 2) << app;
    EXPECT_TRUE(frontier_covers(adaptive.frontier, grid_front)) << app;
  }
}

TEST(Explorer, WarmCacheRunsZeroEvaluationsAndReproducesTheFrontier) {
  std::string path = temp_path("mhla_cache_warm.json");
  ExplorerConfig config = small_config();
  config.cache_path = path;

  ExploreResult cold = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_GT(cold.evaluations, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  ExploreResult warm = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, warm.samples.size());
  ASSERT_EQ(warm.samples.size(), cold.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(warm.samples[i].cell, cold.samples[i].cell);
    EXPECT_EQ(warm.samples[i].point.cycles, cold.samples[i].point.cycles);
    EXPECT_EQ(warm.samples[i].point.energy_nj, cold.samples[i].point.energy_nj);
    EXPECT_TRUE(warm.samples[i].from_cache);
  }
  ASSERT_EQ(warm.frontier.size(), cold.frontier.size());
  for (std::size_t i = 0; i < cold.frontier.size(); ++i) {
    EXPECT_EQ(warm.frontier[i].cycles, cold.frontier[i].cycles);
    EXPECT_EQ(warm.frontier[i].energy_nj, cold.frontier[i].energy_nj);
  }
  std::remove(path.c_str());
}

TEST(Explorer, BudgetTruncatedRunReplaysWarmWithZeroEvaluations) {
  // The budget counts sampled cells, cache hits included, precisely so a
  // truncated exploration replays bit-identically from the cache instead
  // of spending its budget on the cells the cold run never reached.
  std::string path = temp_path("mhla_cache_budget_warm.json");
  ExplorerConfig config = small_config();
  config.budget = 7;  // seed wave (6) + part of the first refinement
  config.cache_path = path;

  ExploreResult cold = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(cold.evaluations, 7u);
  EXPECT_TRUE(cold.budget_exhausted);

  ExploreResult warm = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, 7u);
  ASSERT_EQ(warm.samples.size(), cold.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(warm.samples[i].cell, cold.samples[i].cell);
    EXPECT_EQ(warm.samples[i].point.cycles, cold.samples[i].point.cycles);
  }
  std::remove(path.c_str());
}

TEST(Explorer, CacheKeysSeparateProgramsAndConfigs) {
  std::string path = temp_path("mhla_cache_keys.json");
  ExplorerConfig config = small_config();
  config.cache_path = path;

  ExploreResult first = Explorer(config).run(testing::blocked_reuse_program());
  EXPECT_GT(first.evaluations, 0u);

  // A different program misses the cache entirely...
  ExploreResult other_program = Explorer(config).run(testing::tiny_stream_program());
  EXPECT_EQ(other_program.cache_hits, 0u);

  // ... as does a different target on the same program ...
  ExplorerConfig energy = config;
  energy.pipeline.target = assign::Target::Energy;
  ExploreResult other_target = Explorer(energy).run(testing::blocked_reuse_program());
  EXPECT_EQ(other_target.cache_hits, 0u);

  // ... while the thread count is deliberately not part of the key.
  ExplorerConfig threaded = config;
  threaded.pipeline.num_threads = 4;
  ExploreResult same_key = Explorer(threaded).run(testing::blocked_reuse_program());
  EXPECT_EQ(same_key.evaluations, 0u);

  // Nor is bnb-par's thread count (the optimum is bit-identical for any
  // setting).
  ExplorerConfig par_knobs = config;
  par_knobs.pipeline.search.bnb_threads = 8;
  ExploreResult par_key = Explorer(par_knobs).run(testing::blocked_reuse_program());
  EXPECT_EQ(par_key.evaluations, 0u);
  std::remove(path.c_str());
}

/// The cache key as first defined, hashed from scratch per cell: FNV-1a
/// over program text, normalized config document and transfer mode.  The
/// oracle pins the on-disk key format, so caches written before the
/// incremental keyer keep answering.
std::uint64_t from_scratch_key(const std::string& program_text, core::PipelineConfig effective,
                               bool with_te) {
  effective.num_threads = 0;
  effective.search.bnb_threads = 0;
  effective.search.budget = core::BudgetSpec{};
  effective.search.shared_budget = nullptr;
  return fnv1a64(program_text + '\x1f' + core::to_json(effective) + '\x1f' +
                 (with_te ? "te" : "blocking"));
}

TEST(CellKeyer, MatchesTheFromScratchKeyOnEveryDefaultLatticeCell) {
  ExplorerConfig lattice = default_explorer();
  core::PipelineConfig base;
  base.num_threads = 4;                   // normalized away...
  base.search.budget.max_probes = 1000;   // ...as is the run budget
  base.search.anneal_iterations = 321;    // part of the key
  for (const ir::Program& program :
       {apps::build_app("conv_filter"), apps::build_app("jpeg_compress"),
        gen::random_program(7)}) {
    const std::string text = ir::serialize(program);
    const CellKeyer keyer(text, base);
    for (const char* strategy : {"greedy", "anneal"}) {
      for (i64 l2 : lattice.l2_axis) {
        for (i64 l1 : lattice.l1_axis) {
          for (bool with_te : {false, true}) {
            core::PipelineConfig effective = base;
            effective.platform.l1_bytes = l1;
            effective.platform.l2_bytes = l2;
            effective.strategy = strategy;
            const DesignCell cell{l1, l2, strategy, with_te};
            const std::uint64_t want = from_scratch_key(text, effective, with_te);
            EXPECT_EQ(keyer.key(cell), want) << program.name() << " " << strategy << " " << l1;
            EXPECT_EQ(design_cache_key(text, effective, with_te), want) << program.name();
          }
        }
      }
    }
  }
}

/// Single-cell evaluation, one search per cell: the oracle the explorer's
/// grouped waves (one search per TE pair) must reproduce bit for bit.
TradeoffPoint evaluate_cell_alone(const ir::Program& program, const ExplorerConfig& config,
                                  const DesignCell& cell) {
  std::vector<analysis::AccessSite> sites = analysis::collect_sites(program);
  analysis::ReuseAnalysis reuse = analysis::ReuseAnalysis::run(program, sites);
  std::map<std::string, analysis::LiveRange> live = analysis::array_live_ranges(program, sites);
  analysis::DependenceInfo deps = analysis::DependenceInfo::run(program, sites);
  mem::PlatformConfig platform = config.pipeline.platform;
  platform.l1_bytes = cell.l1_bytes;
  platform.l2_bytes = cell.l2_bytes;
  mem::Hierarchy hierarchy = mem::make_hierarchy(platform);
  assign::AssignContext ctx{program, sites, reuse, live, deps, hierarchy, config.pipeline.dma};
  assign::SearchOptions search = config.pipeline.search;
  search.set_target(config.pipeline.target);
  assign::SearchResult found = assign::searcher(cell.strategy).search(ctx, search);
  sim::SimOptions sim_options;
  sim_options.mode = cell.with_te && config.pipeline.dma.present ? te::TransferMode::TimeExtended
                                                                 : te::TransferMode::Blocking;
  sim_options.te = config.pipeline.te;
  sim::SimResult sim = sim::simulate(ctx, found.assignment, sim_options);
  return {cell.l1_bytes, cell.l2_bytes, sim.total_cycles(), sim.energy_nj};
}

TEST(Explorer, GroupedSearchesMatchPerCellEvaluation) {
  ExplorerConfig config = default_explorer();
  config.strategies = {"greedy", "anneal"};
  config.pipeline.search.anneal_iterations = 200;
  config.explore_te = true;
  for (const ir::Program& program : {apps::build_app("conv_filter"), gen::random_program(8)}) {
    std::vector<TradeoffPoint> oracle;
    for (unsigned threads : {1u, 4u}) {
      config.pipeline.num_threads = threads;
      ExploreResult result = Explorer(config).run(program);
      ASSERT_FALSE(result.samples.empty());
      // Both TE variants of a (strategy, L2, L1) share one search.
      EXPECT_LT(result.searches, result.evaluations) << program.name();
      if (oracle.empty()) {
        for (const ExploreSample& sample : result.samples) {
          oracle.push_back(evaluate_cell_alone(program, config, sample.cell));
        }
      }
      ASSERT_EQ(result.samples.size(), oracle.size()) << program.name() << " threads " << threads;
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(result.samples[i].point.cycles, oracle[i].cycles) << program.name() << " " << i;
        EXPECT_EQ(result.samples[i].point.energy_nj, oracle[i].energy_nj)
            << program.name() << " " << i;
      }
      std::vector<TradeoffPoint> front = pareto_front(oracle);
      ASSERT_EQ(result.frontier.size(), front.size()) << program.name();
      for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_EQ(result.frontier[i].l1_bytes, front[i].l1_bytes);
        EXPECT_EQ(result.frontier[i].l2_bytes, front[i].l2_bytes);
        EXPECT_EQ(result.frontier[i].cycles, front[i].cycles);
        EXPECT_EQ(result.frontier[i].energy_nj, front[i].energy_nj);
      }
    }
  }
}

TEST(Explorer, FlushesItsSearchCountersOncePerExploration) {
  ExplorerConfig config = small_config();
  config.strategies = {"greedy", "bnb"};
  config.explore_te = true;
  const ir::Program program = testing::blocked_reuse_program();

  obs::Registry& registry = obs::Registry::instance();
  const std::uint64_t evaluations_before = registry.counter("search.evaluations").value();
  const std::uint64_t states_before = registry.counter("search.states_explored").value();
  ExploreResult result = Explorer(config).run(program);
  const std::uint64_t evaluations = registry.counter("search.evaluations").value() -
                                    evaluations_before;
  const std::uint64_t states = registry.counter("search.states_explored").value() - states_before;

  // One search per distinct (strategy, L2, L1) evaluated; its effort is
  // what the exploration must have added to the registry.
  std::set<std::tuple<std::string, i64, i64>> searched;
  std::uint64_t want_evaluations = 0;
  std::uint64_t want_states = 0;
  for (const ExploreSample& sample : result.samples) {
    if (!searched.emplace(sample.cell.strategy, sample.cell.l2_bytes, sample.cell.l1_bytes)
             .second) {
      continue;
    }
    mem::PlatformConfig platform = config.pipeline.platform;
    platform.l1_bytes = sample.cell.l1_bytes;
    platform.l2_bytes = sample.cell.l2_bytes;
    auto ws = testing::make_ws(testing::blocked_reuse_program(), platform);
    assign::SearchOptions search = config.pipeline.search;
    search.set_target(config.pipeline.target);
    assign::SearchResult found =
        assign::searcher(sample.cell.strategy).search(ws->context(), search);
    want_evaluations += static_cast<std::uint64_t>(found.evaluations);
    want_states += static_cast<std::uint64_t>(found.states_explored);
  }
  EXPECT_EQ(result.searches, searched.size());
  EXPECT_EQ(result.evaluations, 2 * searched.size());
  EXPECT_GT(want_evaluations, 0u);
  EXPECT_GT(want_states, 0u);
  EXPECT_EQ(evaluations, want_evaluations);
  EXPECT_EQ(states, want_states);
}

TEST(Corpus, ExploresEveryMemberAndAggregatesCounters) {
  CorpusConfig config;
  config.explorer = small_config();
  config.explorer.cache_path = temp_path("mhla_cache_corpus.json");
  config.apps = {"conv_filter", "fft_filter"};
  config.random_programs = 1;
  config.random_seed = 11;

  CorpusResult result = explore_corpus(config);
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.entries[0].program, "conv_filter");
  EXPECT_EQ(result.entries[1].program, "fft_filter");
  EXPECT_EQ(result.entries[2].program, "fuzz_11");
  std::size_t evaluations = 0;
  std::size_t hits = 0;
  for (const CorpusEntry& entry : result.entries) {
    EXPECT_FALSE(entry.result.frontier.empty()) << entry.program;
    evaluations += entry.result.evaluations;
    hits += entry.result.cache_hits;
  }
  EXPECT_EQ(result.evaluations, evaluations);
  EXPECT_EQ(result.cache_hits, hits);

  // A warm corpus re-run touches no pipeline at all.
  CorpusResult warm = explore_corpus(config);
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(warm.cache_hits, result.cache_hits + result.evaluations);
  std::remove(config.explorer.cache_path.c_str());
}

TEST(ExploreJson, ReportIsWellFormedAndCarriesCounters) {
  ExplorerConfig config = small_config();
  config.budget = 3;
  ExploreResult result = Explorer(config).run(testing::blocked_reuse_program());
  std::string json = to_json(result);
  EXPECT_NE(json.find("\"evaluations\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontier\""), std::string::npos);
  EXPECT_NE(json.find("\"from_cache\": false"), std::string::npos);
}

}  // namespace
}  // namespace mhla::xplore
