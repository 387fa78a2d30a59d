#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "assign/search.h"
#include "helpers.h"

namespace mhla::sim {
namespace {

using testing::make_ws;

TEST(Simulator, BaselineHasNoStalls) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SimResult result = simulate(ctx, assign::out_of_box(ctx));
  EXPECT_DOUBLE_EQ(result.stall_cycles, 0.0);
  EXPECT_EQ(result.num_block_transfers, 0);
  EXPECT_TRUE(result.feasible);
}

TEST(Simulator, ModeOrdering) {
  // Ideal <= TimeExtended <= Blocking, always.
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);

  SimResult blocking = simulate(ctx, greedy.assignment, {te::TransferMode::Blocking, {}});
  SimResult extended = simulate(ctx, greedy.assignment, {te::TransferMode::TimeExtended, {}});
  SimResult ideal = simulate(ctx, greedy.assignment, {te::TransferMode::Ideal, {}});

  EXPECT_LE(ideal.total_cycles(), extended.total_cycles());
  EXPECT_LE(extended.total_cycles(), blocking.total_cycles());
  EXPECT_DOUBLE_EQ(ideal.stall_cycles, 0.0);
}

TEST(Simulator, NestCyclesSumToComputePlusAccess) {
  auto ws = make_ws(testing::producer_consumer_program());
  auto ctx = ws->context();
  SimResult result = simulate(ctx, assign::out_of_box(ctx));
  double sum = 0.0;
  for (double c : result.nest_cycles) sum += c;
  EXPECT_NEAR(sum, result.compute_cycles + result.access_cycles, 1e-9);
}

TEST(Simulator, LayerStatsConsistentWithEnergy) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  SimResult result = simulate(ctx, greedy.assignment);
  double layer_sum = 0.0;
  for (const LayerStats& layer : result.layers) layer_sum += layer.energy_nj;
  EXPECT_NEAR(layer_sum, result.energy_nj, 1e-6);
}

TEST(Simulator, FourPointsShape) {
  auto ws = make_ws(testing::blocked_reuse_program());
  FourPoint fp = testing::reference_run(*ws).points;
  EXPECT_LE(fp.mhla.total_cycles(), fp.out_of_box.total_cycles());
  EXPECT_LE(fp.mhla_te.total_cycles(), fp.mhla.total_cycles());
  EXPECT_LE(fp.ideal.total_cycles(), fp.mhla_te.total_cycles());
  EXPECT_LE(fp.mhla.energy_nj, fp.out_of_box.energy_nj);
  EXPECT_DOUBLE_EQ(fp.mhla.energy_nj, fp.mhla_te.energy_nj);
}

// SimResult::layers counts every dynamic access per layer: processor loads
// and stores plus copy traffic.
TEST(AccessTally, CountsProcessorAndCopyTraffic) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;
  }
  ASSERT_GE(cc_id, 0);
  a.copies.push_back({cc_id, 0});
  std::vector<LayerStats> layers = simulate(ctx, a).layers;
  const analysis::CopyCandidate& cc = ctx.reuse.candidate(cc_id);

  // L1: processor reads + copy-fill writes.
  EXPECT_EQ(layers[0].reads, cc.reads_served);
  EXPECT_EQ(layers[0].writes, cc.transfers * cc.elems_per_transfer);
  // SDRAM: copy-fill reads + the program's own writes to "acc".
  EXPECT_EQ(layers[static_cast<std::size_t>(ctx.hierarchy.background())].reads,
            cc.transfers * cc.elems_per_transfer);
}

TEST(AccessTally, GrandTotalConsistency) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SimResult result = simulate(ctx, assign::out_of_box(ctx));
  ASSERT_EQ(result.layers.size(), static_cast<std::size_t>(ctx.hierarchy.num_layers()));
  ir::i64 expected = 0;
  for (const analysis::AccessSite& site : ctx.sites) expected += site.dynamic_accesses();
  ir::i64 total = 0;
  for (const LayerStats& layer : result.layers) total += layer.reads + layer.writes;
  EXPECT_EQ(total, expected);
}

TEST(Simulator, InfeasibleAssignmentIsFlagged) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 16;
  platform.l2_bytes = 0;
  auto ws = make_ws(testing::blocked_reuse_program(), platform);
  auto ctx = ws->context();
  assign::Assignment a = assign::out_of_box(ctx);
  int cc_id = -1;
  for (const auto& cc : ctx.reuse.candidates()) {
    if (cc.array == "data" && cc.level == 1) cc_id = cc.id;  // 256 B > 16 B
  }
  a.copies.push_back({cc_id, 0});
  SimResult result = simulate(ctx, a);
  EXPECT_FALSE(result.feasible);
}

}  // namespace
}  // namespace mhla::sim
