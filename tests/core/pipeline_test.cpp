#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/json.h"
#include "core/json_report.h"
#include "helpers.h"
#include "ir/serialize.h"
#include "obs/metrics.h"

namespace mhla::core {
namespace {

/// Exact (bit-level) comparison of two simulation results.
void expect_same_result(const sim::SimResult& a, const sim::SimResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << where;
  EXPECT_EQ(a.access_cycles, b.access_cycles) << where;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << where;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << where;
  EXPECT_EQ(a.dma_busy_cycles, b.dma_busy_cycles) << where;
  EXPECT_EQ(a.num_block_transfers, b.num_block_transfers) << where;
  EXPECT_EQ(a.feasible, b.feasible) << where;
  ASSERT_EQ(a.layers.size(), b.layers.size()) << where;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].reads, b.layers[i].reads) << where;
    EXPECT_EQ(a.layers[i].writes, b.layers[i].writes) << where;
    EXPECT_EQ(a.layers[i].energy_nj, b.layers[i].energy_nj) << where;
  }
  EXPECT_EQ(a.nest_cycles, b.nest_cycles) << where;
}

void expect_same_points(const sim::FourPoint& a, const sim::FourPoint& b,
                        const std::string& app) {
  expect_same_result(a.out_of_box, b.out_of_box, app + "/out_of_box");
  expect_same_result(a.mhla, b.mhla, app + "/mhla");
  expect_same_result(a.mhla_te, b.mhla_te, app + "/mhla_te");
  expect_same_result(a.ideal, b.ideal, app + "/ideal");
}

/// A config with every field moved off its default, for round-trip tests.
PipelineConfig custom_config() {
  PipelineConfig config;
  config.platform.l1_bytes = 2048;
  config.platform.l2_bytes = 0;
  config.platform.sram.base_energy_nj = 0.03;
  config.platform.sram.slope_energy_nj = 0.004;
  config.platform.sram.write_factor = 1.25;
  config.platform.sram.base_latency = 2;
  config.platform.sram.latency_step_bytes = 16 * 1024;
  config.platform.sram.bytes_per_cycle = 4.0;
  config.platform.sdram.read_energy_nj = 5.5;
  config.platform.sdram.write_energy_nj = 6.1;
  config.platform.sdram.read_latency = 25;
  config.platform.sdram.write_latency = 28;
  config.platform.sdram.bytes_per_cycle = 1.5;
  config.dma.present = false;
  config.dma.setup_cycles = 42;
  config.dma.bytes_per_cycle = 3.5;
  config.dma.channels = 2;
  config.strategy = "bnb";
  config.target = assign::Target::Energy;
  config.search.energy_weight = 0.75;
  config.search.time_weight = 0.25;
  config.search.max_moves = 500;
  config.search.max_states = 12345;
  config.search.allow_array_migration = false;
  config.search.bnb_threads = 6;
  config.te.order = te::ExtensionOrder::BySizeDescending;
  config.te.max_lookahead = 5;
  config.te.charge_cold_start = true;
  config.num_threads = 3;
  return config;
}

TEST(Pipeline, GreedyStrategyMatchesGreedyReferenceOnAllNineApps) {
  // The facade must not move a single bit relative to the flow built from
  // its parts (greedy_assign + simulate_four_points).
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = make_workspace(info.build(), {}, {});
    testing::ReferenceRun reference = testing::reference_run(*ws);

    Pipeline pipeline(PipelineConfig{});
    PipelineResult result = pipeline.run(ws->analysis());

    expect_same_points(result.points, reference.points, info.name);
    EXPECT_EQ(result.search.assignment, reference.step1.assignment) << info.name;
    EXPECT_EQ(result.search.scalar, reference.step1.scalar) << info.name;
    EXPECT_EQ(result.search.evaluations, reference.step1.evaluations) << info.name;
  }
}

TEST(Pipeline, MatchesGreedyReferenceForEveryTarget) {
  auto ws = make_workspace(apps::build_cavity_detection(), {}, {});
  for (assign::Target target :
       {assign::Target::Energy, assign::Target::Time, assign::Target::Balanced}) {
    testing::ReferenceRun reference = testing::reference_run(*ws, target);
    PipelineConfig config;
    config.target = target;
    PipelineResult result = Pipeline(config).run(ws->analysis());
    expect_same_points(result.points, reference.points, assign::to_string(target));
  }
}

TEST(Pipeline, RunFromProgramMatchesRunFromWorkspace) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  Pipeline pipeline(config);
  auto ws = make_workspace(testing::blocked_reuse_program(), config.platform, config.dma);
  PipelineResult from_ws = pipeline.run(ws->analysis());
  PipelineResult from_program = pipeline.run(testing::blocked_reuse_program());
  expect_same_points(from_program.points, from_ws.points, "blocked");
}

TEST(Pipeline, RefusesProgramsWhoseAccessCountsOverflow) {
  // Four loops of 2^20 iterations around one read: 2^80 dynamic accesses
  // wrap i64 to 0, so the run reported 0 cycles and 0 nJ before validation
  // checked the products.  It is refused before any stage reports a cost.
  std::string text = "program wraps\narray a 1 : elem 4 input\n";
  for (int d = 0; d < 4; ++d) text += "loop i" + std::to_string(d) + " 0 1048576 1 {\n";
  text += "stmt s ops 1 {\nread a [0]\n}\n}\n}\n}\n}\n";
  Pipeline pipeline(PipelineConfig{});
  try {
    PipelineResult result = pipeline.run(ir::parse_program(text));
    ADD_FAILURE() << "accepted; energy " << result.points.mhla.energy_nj;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("more than 2^53"), std::string::npos) << error.what();
  }
}

TEST(Pipeline, UnknownStrategyThrowsAtConstruction) {
  PipelineConfig config;
  config.strategy = "simulated-annealing";
  EXPECT_THROW(Pipeline pipeline(config), std::out_of_range);
}

TEST(Pipeline, ReportsStagesAndTimings) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  Pipeline pipeline(config);
  std::vector<std::string> seen;
  pipeline.set_progress([&](const std::string& stage, double) { seen.push_back(stage); });
  PipelineResult result = pipeline.run(testing::blocked_reuse_program());

  std::vector<std::string> expected = {"analyze", "assign", "time_extend", "simulate"};
  EXPECT_EQ(seen, expected);
  ASSERT_EQ(result.timings.size(), expected.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.timings[i].stage, expected[i]);
    EXPECT_GE(result.timings[i].seconds, 0.0);
    sum += result.timings[i].seconds;
  }
  EXPECT_DOUBLE_EQ(result.total_seconds, sum);
}

TEST(Pipeline, RunBatchIsDeterministicForAnyThreadCount) {
  std::vector<ir::Program> programs;
  programs.push_back(testing::tiny_stream_program());
  programs.push_back(testing::blocked_reuse_program());
  programs.push_back(testing::producer_consumer_program());

  PipelineConfig config;
  config.platform = testing::small_platform();
  config.num_threads = 1;
  std::vector<PipelineResult> serial = Pipeline(config).run_batch([&] {
    std::vector<ir::Program> copy;
    copy.push_back(testing::tiny_stream_program());
    copy.push_back(testing::blocked_reuse_program());
    copy.push_back(testing::producer_consumer_program());
    return copy;
  }());
  ASSERT_EQ(serial.size(), 3u);

  for (unsigned threads : {0u, 2u, 4u}) {
    config.num_threads = threads;
    Pipeline pipeline(config);
    int completed = 0;
    pipeline.set_progress([&](const std::string&, double) { ++completed; });
    std::vector<PipelineResult> parallel = pipeline.run_batch([&] {
      std::vector<ir::Program> copy;
      copy.push_back(testing::tiny_stream_program());
      copy.push_back(testing::blocked_reuse_program());
      copy.push_back(testing::producer_consumer_program());
      return copy;
    }());
    ASSERT_EQ(parallel.size(), serial.size()) << "threads " << threads;
    EXPECT_EQ(completed, 3) << "threads " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same_points(parallel[i].points, serial[i].points,
                         "batch[" + std::to_string(i) + "] threads " + std::to_string(threads));
      EXPECT_EQ(parallel[i].search.assignment, serial[i].search.assignment);
    }
  }
}

TEST(Pipeline, BoundedRunBatchAddsItsProbesToTheCounter) {
  // A probe allowance no program reaches: the batch-wide token charges
  // exactly what the same programs charge run one by one, and the batch
  // adds that to search.budget_probes once.
  auto programs = [] {
    std::vector<ir::Program> list;
    list.push_back(testing::tiny_stream_program());
    list.push_back(testing::blocked_reuse_program());
    list.push_back(testing::producer_consumer_program());
    return list;
  };
  PipelineConfig config;
  config.platform = testing::small_platform();
  config.num_threads = 2;
  config.search.budget.max_probes = 1'000'000'000;
  obs::Counter& probes = obs::Registry::instance().counter("search.budget_probes");

  std::uint64_t before = probes.value();
  for (ir::Program& program : programs()) Pipeline(config).run(std::move(program));
  const std::uint64_t one_by_one = probes.value() - before;
  ASSERT_GT(one_by_one, 0u);

  before = probes.value();
  std::vector<PipelineResult> batch = Pipeline(config).run_batch(programs());
  ASSERT_EQ(batch.size(), 3u);
  for (const PipelineResult& run : batch) {
    EXPECT_NE(run.search.status, assign::SearchStatus::BudgetExhausted);
  }
  EXPECT_EQ(probes.value() - before, one_by_one);
}

TEST(PipelineConfigJson, DefaultConfigRoundTrips) {
  PipelineConfig config;
  EXPECT_EQ(pipeline_config_from_json(to_json(config)), config);
}

TEST(PipelineConfigJson, CustomConfigRoundTripsLosslessly) {
  PipelineConfig config = custom_config();
  PipelineConfig parsed = pipeline_config_from_json(to_json(config));
  EXPECT_EQ(parsed, config);
  // And the emitted text is stable across one round trip.
  EXPECT_EQ(to_json(parsed), to_json(config));
}

TEST(PipelineConfigJson, PartialDocumentsKeepDefaults) {
  PipelineConfig parsed = pipeline_config_from_json(
      R"({"strategy": "bnb", "platform": {"l1_bytes": 512}})");
  EXPECT_EQ(parsed.strategy, "bnb");
  EXPECT_EQ(parsed.platform.l1_bytes, 512);
  PipelineConfig defaults;
  EXPECT_EQ(parsed.platform.l2_bytes, defaults.platform.l2_bytes);
  EXPECT_EQ(parsed.te, defaults.te);
  EXPECT_EQ(parsed.search, defaults.search);
}

TEST(PipelineConfigJson, BnbParKnobsRoundTrip) {
  // The parallel branch-and-bound knob rides in the search block: partial
  // documents set it, dumps carry it, and the round trip is lossless
  // (CustomConfigRoundTripsLosslessly covers non-default values).
  PipelineConfig parsed = pipeline_config_from_json(
      R"({"strategy": "bnb-par", "search": {"bnb_threads": 4}})");
  EXPECT_EQ(parsed.strategy, "bnb-par");
  EXPECT_EQ(parsed.search.bnb_threads, 4u);

  std::string dumped = to_json(PipelineConfig{});
  EXPECT_NE(dumped.find("bnb_threads"), std::string::npos);
}

/// `mhla_tool --dump-config` as written before eight search toggles were
/// retired, verbatim: the document still carries every retired key.
constexpr const char* kDumpWithRetiredToggles = R"json({
  "platform": {
    "l1_bytes": 4096,
    "l2_bytes": 131072,
    "sram": {"base_energy_nj": 0.02, "slope_energy_nj": 0.0025000000000000001, "write_factor": 1.1499999999999999, "base_latency": 1, "latency_step_bytes": 32768, "bytes_per_cycle": 8},
    "sdram": {"read_energy_nj": 4, "write_energy_nj": 4.4000000000000004, "read_latency": 20, "write_latency": 20, "bytes_per_cycle": 2}
  },
  "dma": {"present": true, "setup_cycles": 30, "bytes_per_cycle": 2, "channels": 1},
  "strategy": "greedy",
  "target": "balanced",
  "search": {"energy_weight": 1, "time_weight": 1, "max_moves": 100000, "max_states": 2000000, "allow_array_migration": true, "use_cost_engine": true, "use_branch_and_bound": true, "use_footprint_tracker": true, "greedy_batched_scoring": true, "use_footprint_bound": true,
               "anneal_iterations": 2000, "anneal_seed": 1, "anneal_initial_temp": 0.050000000000000003, "anneal_cooling": 0.997,
               "bnb_threads": 0, "bnb_tasks_per_thread": 4, "bnb_seed_incumbent": true, "bnb_work_stealing": true,
               "deadline_seconds": 0, "max_probes": 0},
  "te": {"order": "time_per_byte", "max_lookahead": 3, "charge_cold_start": false, "use_footprint_tracker": true},
  "num_threads": 0
})json";

TEST(PipelineConfigJson, DumpWithRetiredTogglesStillLoadsAndRunsIdentically) {
  PipelineConfig parsed = pipeline_config_from_json(kDumpWithRetiredToggles);
  EXPECT_EQ(parsed, PipelineConfig{});
  // The current dump no longer carries the retired keys.
  std::string dumped = to_json(parsed);
  for (const char* retired :
       {"use_cost_engine", "use_branch_and_bound", "use_footprint_tracker",
        "greedy_batched_scoring", "use_footprint_bound", "bnb_tasks_per_thread",
        "bnb_seed_incumbent", "bnb_work_stealing"}) {
    EXPECT_EQ(dumped.find(retired), std::string::npos) << retired;
  }
  for (const char* strategy : {"greedy", "bnb"}) {
    SCOPED_TRACE(strategy);
    PipelineConfig old_document = parsed;
    old_document.strategy = strategy;
    PipelineConfig current;
    current.strategy = strategy;
    auto ws = make_workspace(testing::blocked_reuse_program(), current.platform, current.dma);
    PipelineResult from_old = Pipeline(old_document).run(ws->analysis());
    PipelineResult from_current = Pipeline(current).run(ws->analysis());
    expect_same_points(from_old.points, from_current.points, strategy);
    EXPECT_EQ(from_old.search.assignment, from_current.search.assignment);
    EXPECT_EQ(from_old.search.scalar, from_current.search.scalar);
  }
}

TEST(PipelineConfigJson, RetiredToggleValuesAreIgnored) {
  // Each retired toggle selected a path bit-identical to the default, so
  // its value is read and dropped — off gives the default result.
  PipelineConfig parsed = pipeline_config_from_json(R"({"search": {"use_cost_engine": false}})");
  EXPECT_EQ(parsed, PipelineConfig{});
  PipelineConfig all_off = pipeline_config_from_json(
      R"({"search": {"use_cost_engine": false, "use_branch_and_bound": false,
                     "use_footprint_tracker": false, "greedy_batched_scoring": false,
                     "use_footprint_bound": false, "bnb_tasks_per_thread": 1,
                     "bnb_seed_incumbent": false, "bnb_work_stealing": false},
          "te": {"use_footprint_tracker": false}})");
  EXPECT_EQ(all_off, PipelineConfig{});
  auto ws = make_workspace(testing::blocked_reuse_program(), {}, {});
  PipelineResult off = Pipeline(parsed).run(ws->analysis());
  PipelineResult defaults = Pipeline(PipelineConfig{}).run(ws->analysis());
  expect_same_points(off.points, defaults.points, "use_cost_engine=false");
  EXPECT_EQ(off.search.assignment, defaults.search.assignment);
  EXPECT_EQ(off.search.evaluations, defaults.search.evaluations);
}

TEST(PipelineConfigJson, MisspelledSearchKeyStillThrows) {
  try {
    pipeline_config_from_json(R"({"search": {"use_cost_engin": true}})");
    FAIL() << "expected an unknown-key error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("search.use_cost_engin"), std::string::npos)
        << e.what();
  }
}

TEST(PipelineConfigJson, RetiredStrategyNameListsTheFourStrategies) {
  PipelineConfig config = pipeline_config_from_json(R"({"strategy": "greedy-ref"})");
  try {
    Pipeline pipeline(config);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    std::string message = e.what();
    std::string listed = message.substr(message.find("registered strategies:"));
    for (const char* name : {" anneal", " bnb", " bnb-par", " greedy"}) {
      EXPECT_NE(listed.find(name), std::string::npos) << name << " in " << message;
    }
    EXPECT_EQ(listed.find("greedy-ref"), std::string::npos) << message;
    EXPECT_EQ(listed.find("exhaustive"), std::string::npos) << message;
  }
}

TEST(PipelineConfigJson, MalformedInputGivesClearErrors) {
  // Syntax error: position included.
  try {
    pipeline_config_from_json("{\"strategy\": }");
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("JSON parse error"), std::string::npos) << e.what();
  }
  // Unknown key: named.
  try {
    pipeline_config_from_json(R"({"stratgy": "greedy"})");
    FAIL() << "expected an unknown-key error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stratgy"), std::string::npos) << e.what();
  }
  // Nested unknown key: path included.
  EXPECT_THROW(pipeline_config_from_json(R"({"platform": {"l3_bytes": 1}})"),
               std::invalid_argument);
  // Type mismatch.
  EXPECT_THROW(pipeline_config_from_json(R"({"num_threads": "many"})"),
               std::invalid_argument);
  // Bad enum text.
  EXPECT_THROW(pipeline_config_from_json(R"({"target": "speed"})"), std::invalid_argument);
  EXPECT_THROW(pipeline_config_from_json(R"({"te": {"order": "random"}})"),
               std::invalid_argument);
}

TEST(PipelineConfigJson, OutOfRangeIntegersThrowInsteadOfWrapping) {
  // A wrapped max_moves of 0 would silently disable the search.
  EXPECT_THROW(pipeline_config_from_json(R"({"search": {"max_moves": 4294967296}})"),
               std::invalid_argument);
  EXPECT_THROW(pipeline_config_from_json(R"({"num_threads": -1})"), std::invalid_argument);
  EXPECT_THROW(pipeline_config_from_json(R"({"dma": {"setup_cycles": 3000000000}})"),
               std::invalid_argument);
}

TEST(Pipeline, CustomTargetHonorsExplicitWeights) {
  // target "custom" must make the serialized weights live: an all-energy
  // custom weighting matches the Energy target bit for bit.
  auto ws = make_workspace(apps::build_cavity_detection(), {}, {});
  PipelineConfig energy;
  energy.target = assign::Target::Energy;
  PipelineConfig custom = pipeline_config_from_json(
      R"({"target": "custom", "search": {"energy_weight": 1.0, "time_weight": 0.0}})");
  expect_same_points(Pipeline(custom).run(ws->analysis()).points,
                     Pipeline(energy).run(ws->analysis()).points, "custom-vs-energy");
  // And a custom weighting that differs from balanced must be able to
  // change the outcome's objective trade-off direction.
  EXPECT_EQ(assign::parse_target("custom"), assign::Target::Custom);
  EXPECT_EQ(assign::to_string(assign::Target::Custom), "custom");
  EXPECT_THROW(assign::target_weights(assign::Target::Custom), std::invalid_argument);
}

TEST(PipelineConfigJson, ParsedConfigDrivesThePipeline) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  PipelineConfig parsed = pipeline_config_from_json(to_json(config));
  PipelineResult from_parsed = Pipeline(parsed).run(testing::blocked_reuse_program());
  PipelineResult from_value = Pipeline(config).run(testing::blocked_reuse_program());
  expect_same_points(from_parsed.points, from_value.points, "parsed-config");
}

TEST(PipelineResultJson, EmitsStrategyMetadataAndTimings) {
  PipelineConfig config;
  config.platform = testing::small_platform();
  PipelineResult result = Pipeline(config).run(testing::blocked_reuse_program());
  std::string text = to_json("blocked", result);

  Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("application").string(), "blocked");
  EXPECT_EQ(doc.at("strategy").string(), "greedy");
  EXPECT_GT(doc.at("search").at("evaluations").integer(), 0);
  ASSERT_EQ(doc.at("timings").array().size(), 4u);
  EXPECT_EQ(doc.at("timings").array()[1].at("stage").string(), "assign");
  EXPECT_EQ(doc.at("points").at("application").string(), "blocked");
  EXPECT_GT(doc.at("points").at("mhla").at("total_cycles").number(), 0.0);
}

}  // namespace
}  // namespace mhla::core
