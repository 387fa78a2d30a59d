#include "explore/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "apps/registry.h"
#include "helpers.h"
#include "obs/metrics.h"

namespace mhla::xplore {
namespace {

TEST(Sweep, DefaultGridShape) {
  SweepConfig config = default_sweep();
  EXPECT_FALSE(config.l1_sizes.empty());
  EXPECT_EQ(config.l1_sizes.front(), 256);
  EXPECT_EQ(config.l1_sizes.back(), 64 * 1024);
  EXPECT_EQ(config.l2_sizes.size(), 3u);
}

TEST(Sweep, ProducesOneSamplePerGridPoint) {
  SweepConfig config;
  config.l1_sizes = {256, 1024};
  config.l2_sizes = {0, 8192};
  auto samples = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  EXPECT_EQ(samples.size(), 4u);
}

TEST(Sweep, BiggerL1NeverHurtsCycles) {
  // More on-chip memory can only help (or tie) the greedy result on this
  // monotone workload.
  SweepConfig config;
  config.l1_sizes = {128, 512, 2048};
  config.l2_sizes = {0};
  config.with_te = false;
  auto samples = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_GE(samples[0].point.cycles, samples[1].point.cycles);
  EXPECT_GE(samples[1].point.cycles, samples[2].point.cycles);
}

TEST(Sweep, TeFlagControlsMode) {
  SweepConfig config;
  config.l1_sizes = {1024};
  config.l2_sizes = {0};
  config.with_te = false;
  auto without = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  EXPECT_FALSE(without[0].te_applied);
  config.with_te = true;
  auto with = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  EXPECT_TRUE(with[0].te_applied);
  EXPECT_LE(with[0].point.cycles, without[0].point.cycles);
}

TEST(Sweep, NoDmaDisablesTe) {
  SweepConfig config;
  config.l1_sizes = {1024};
  config.l2_sizes = {0};
  config.with_te = true;
  config.pipeline.dma.present = false;
  auto samples = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  EXPECT_FALSE(samples[0].te_applied);
}

TEST(Sweep, ParallelSweepIsDeterministicForAnyThreadCount) {
  SweepConfig config;
  config.l1_sizes = {256, 1024, 4096};
  config.l2_sizes = {0, 8192};

  config.pipeline.num_threads = 1;
  auto serial = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  ASSERT_EQ(serial.size(), 6u);

  for (unsigned threads : {0u, 2u, 3u, 8u}) {
    config.pipeline.num_threads = threads;
    auto parallel = sweep_layer_sizes(testing::blocked_reuse_program(), config);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].point.l1_bytes, serial[i].point.l1_bytes);
      EXPECT_EQ(parallel[i].point.l2_bytes, serial[i].point.l2_bytes);
      EXPECT_EQ(parallel[i].point.cycles, serial[i].point.cycles);
      EXPECT_EQ(parallel[i].point.energy_nj, serial[i].point.energy_nj);
      EXPECT_EQ(parallel[i].assignment, serial[i].assignment);
      EXPECT_EQ(parallel[i].te_applied, serial[i].te_applied);
    }
  }
}

TEST(Sweep, UnknownStrategyThrowsBeforeAnyWork) {
  SweepConfig config;
  config.l1_sizes = {256};
  config.l2_sizes = {0};
  config.pipeline.strategy = "no-such-strategy";
  EXPECT_THROW(sweep_layer_sizes(testing::blocked_reuse_program(), config),
               std::out_of_range);
}

TEST(Sweep, PlatformModelsFlowFromPipelineConfig) {
  // The sweep shares the pipeline's platform: pricier SDRAM accesses must
  // show up in every sample (no silently diverging sweep-local models).
  SweepConfig cheap;
  cheap.l1_sizes = {1024};
  cheap.l2_sizes = {0};
  SweepConfig pricey = cheap;
  pricey.pipeline.platform.sdram.read_energy_nj *= 10.0;
  pricey.pipeline.platform.sdram.write_energy_nj *= 10.0;
  auto a = sweep_layer_sizes(testing::blocked_reuse_program(), cheap);
  auto b = sweep_layer_sizes(testing::blocked_reuse_program(), pricey);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_GT(b[0].point.energy_nj, a[0].point.energy_nj);
}

TEST(Sweep, DuplicateSizesAreDeduplicated) {
  SweepConfig config;
  config.l1_sizes = {1024, 256, 1024, 256};
  config.l2_sizes = {0, 8192, 0};
  auto samples = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  ASSERT_EQ(samples.size(), 4u);  // 2 unique L1 x 2 unique L2
  // First-occurrence order is preserved: (l2, l1) canonical flattening.
  EXPECT_EQ(samples[0].point.l2_bytes, 0);
  EXPECT_EQ(samples[0].point.l1_bytes, 1024);
  EXPECT_EQ(samples[1].point.l1_bytes, 256);
  EXPECT_EQ(samples[2].point.l2_bytes, 8192);
}

TEST(Sweep, TinyCellsStayOutOfBox) {
  // Cells whose layers cannot hold even the smallest placeable object (the
  // smallest array or copy box) leave every strategy at the out-of-box
  // assignment.
  const ir::Program program = testing::blocked_reuse_program();
  const analysis::ReuseAnalysis reuse =
      analysis::ReuseAnalysis::run(program, analysis::collect_sites(program));
  i64 min_placeable = std::numeric_limits<i64>::max();
  for (const ir::ArrayDecl& array : program.arrays()) {
    min_placeable = std::min(min_placeable, array.bytes());
  }
  for (const analysis::CopyCandidate& cc : reuse.candidates()) {
    min_placeable = std::min(min_placeable, cc.bytes);
  }
  ASSERT_GT(min_placeable, 1);

  SweepConfig config;
  config.l1_sizes = {1, 4, 16, 1024};
  config.l2_sizes = {0, 8, 8192};  // 0: no L2
  for (const char* strategy : {"greedy", "anneal"}) {
    config.pipeline.strategy = strategy;
    auto samples = sweep_layer_sizes(program, config);
    ASSERT_EQ(samples.size(), 12u) << strategy;
    int tiny_cells = 0;
    for (const SweepSample& sample : samples) {
      const bool tiny =
          sample.point.l1_bytes < min_placeable && sample.point.l2_bytes < min_placeable;
      if (!tiny) continue;
      ++tiny_cells;
      mem::PlatformConfig platform = config.pipeline.platform;
      platform.l1_bytes = sample.point.l1_bytes;
      platform.l2_bytes = sample.point.l2_bytes;
      auto ws = core::make_workspace(testing::blocked_reuse_program(), platform);
      EXPECT_EQ(sample.assignment, assign::out_of_box(ws->context()))
          << strategy << " L1 " << sample.point.l1_bytes << " L2 " << sample.point.l2_bytes;
    }
    EXPECT_GT(tiny_cells, 0) << strategy;
  }
}

TEST(Sweep, SingleTinyCellAtTheDedupEdgeStaysOutOfBox) {
  // A grid whose duplicate sizes collapse to one cell where the smallest
  // placeable object fits no layer, next to one where it does.
  using ir::av;
  ir::ProgramBuilder pb("one_cell");
  pb.array("tab", {16}, 4).input();        // 64 B: the smallest placeable object
  pb.array("big", {64, 16}, 4).input();    // rows of 64 B reused under r
  pb.array("out", {64}, 4).output();
  pb.begin_loop("i", 0, 64);
  pb.begin_loop("r", 0, 4);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 1).read("big", {av("i"), av("j")}).read("tab", {av("j")});
  pb.end_loop();
  pb.end_loop();
  pb.stmt("e", 1).write("out", {av("i")});
  pb.end_loop();
  ir::Program program = pb.finish();

  SweepConfig config;
  config.l1_sizes = {32, 256, 32};  // dedups to {32, 256}; 32 B holds nothing
  config.l2_sizes = {0};
  for (const char* strategy : {"greedy", "bnb-par"}) {
    config.pipeline.strategy = strategy;
    auto samples = sweep_layer_sizes(program, config);
    ASSERT_EQ(samples.size(), 2u) << strategy;
    EXPECT_TRUE(samples[0].assignment.copies.empty()) << strategy;
    EXPECT_FALSE(samples[1].assignment.copies.empty()) << strategy;
  }
}

TEST(Sweep, ProbeAllowanceCoversTheWholeSweep) {
  // A bounded budget is one sweep-wide token: 27 bnb cells on qsdpcm under
  // a probe allowance far below one solve charge about one allowance in
  // total (a cell past the expiry charges only the few probes that find it
  // expired), not one allowance per cell.
  constexpr long kAllowance = 2000;
  SweepConfig config = default_sweep();
  config.pipeline.strategy = "bnb";
  config.pipeline.num_threads = 1;
  config.pipeline.search.budget.max_probes = kAllowance;
  obs::Counter& probes = obs::Registry::instance().counter("search.budget_probes");
  const std::uint64_t before = probes.value();
  auto samples = sweep_layer_sizes(apps::build_app("qsdpcm"), config);
  const std::uint64_t charged = probes.value() - before;
  ASSERT_EQ(samples.size(), 27u);
  EXPECT_GT(charged, static_cast<std::uint64_t>(kAllowance));
  EXPECT_LT(charged, static_cast<std::uint64_t>(2 * kAllowance))
      << "the allowance restarted per cell";
}

TEST(Sweep, DeadlineCoversTheWholeSweep) {
  // The same token under a 0.2 s deadline: the sweep ends near the
  // deadline, not near 27 deadlines (5.4 s).
  SweepConfig config = default_sweep();
  config.pipeline.strategy = "bnb";
  config.pipeline.num_threads = 1;
  config.pipeline.search.budget.deadline_seconds = 0.2;
  const ir::Program program = apps::build_app("qsdpcm");
  const auto start = std::chrono::steady_clock::now();
  auto samples = sweep_layer_sizes(program, config);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_EQ(samples.size(), 27u);
  EXPECT_LT(seconds, 0.2 * 27 / 2) << "the deadline restarted per cell";
}

TEST(Sweep, FrontierIsSubsetOfSamples) {
  SweepConfig config;
  config.l1_sizes = {128, 512, 2048, 8192};
  config.l2_sizes = {0};
  auto samples = sweep_layer_sizes(testing::blocked_reuse_program(), config);
  auto front = frontier(samples);
  EXPECT_FALSE(front.empty());
  EXPECT_LE(front.size(), samples.size());
  for (const TradeoffPoint& p : front) {
    bool found = false;
    for (const SweepSample& s : samples) {
      if (s.point.l1_bytes == p.l1_bytes && s.point.l2_bytes == p.l2_bytes &&
          s.point.cycles == p.cycles && s.point.energy_nj == p.energy_nj) {
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace mhla::xplore
