// Tests for the one-time fill/flush charges on pinned on-chip arrays —
// the model refinement that prevents "free" migration of inputs on-chip.

#include <gtest/gtest.h>

#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla::assign {
namespace {

using ir::av;
using testing::make_ws;

/// One input, one output, one scratch array, all small enough for L1.
ir::Program three_kinds_program() {
  ir::ProgramBuilder pb("kinds");
  pb.array("in", {32}, 4).input();
  pb.array("scratch", {32}, 4);
  pb.array("out", {32}, 4).output();
  pb.begin_loop("i", 0, 32);
  pb.stmt("s0", 1).read("in", {av("i")}).write("scratch", {av("i")});
  pb.end_loop();
  pb.begin_loop("j", 0, 32);
  pb.stmt("s1", 1).read("scratch", {av("j")}).write("out", {av("j")});
  pb.end_loop();
  return pb.finish();
}

TEST(PinnedTraffic, EnumeratesInputsAndOutputsOnly) {
  auto ws = make_ws(three_kinds_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  a.array_layer["in"] = 0;
  a.array_layer["scratch"] = 0;
  a.array_layer["out"] = 0;
  std::vector<PinnedTraffic> traffic = pinned_array_traffic(ctx, a);
  ASSERT_EQ(traffic.size(), 2u);
  bool saw_fill = false;
  bool saw_flush = false;
  for (const PinnedTraffic& t : traffic) {
    if (t.fill) {
      EXPECT_EQ(t.array->name, "in");
      saw_fill = true;
    } else {
      EXPECT_EQ(t.array->name, "out");
      saw_flush = true;
    }
  }
  EXPECT_TRUE(saw_fill);
  EXPECT_TRUE(saw_flush);
}

TEST(PinnedTraffic, BackgroundHomesAreFree) {
  auto ws = make_ws(three_kinds_program());
  auto ctx = ws->context();
  EXPECT_TRUE(pinned_array_traffic(ctx, out_of_box(ctx)).empty());
}

TEST(PinnedTraffic, ScratchArraysAreFree) {
  auto ws = make_ws(three_kinds_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  a.array_layer["scratch"] = 0;
  EXPECT_TRUE(pinned_array_traffic(ctx, a).empty());
}

TEST(PinnedTraffic, CostChargesExactlyOneFill) {
  auto ws = make_ws(three_kinds_program());
  auto ctx = ws->context();
  Assignment base = out_of_box(ctx);
  Assignment pinned = base;
  pinned.array_layer["in"] = 0;

  oracles::CostEstimate before = oracles::estimate_cost(ctx, base);
  oracles::CostEstimate after = oracles::estimate_cost(ctx, pinned);

  const mem::MemLayer& l1 = ctx.hierarchy.layer(0);
  const mem::MemLayer& sdram = ctx.hierarchy.layer(ctx.hierarchy.background());
  // Energy delta = processor reads move to L1, plus the one-time fill.
  double access_delta = 32.0 * (l1.read_energy_nj - sdram.read_energy_nj);
  double fill = 32.0 * (sdram.read_energy_nj + l1.write_energy_nj);
  EXPECT_NEAR(after.energy_nj - before.energy_nj, access_delta + fill, 1e-9);

  double fill_cycles = mem::blocking_transfer_cycles(128, sdram, l1, ctx.dma);
  EXPECT_NEAR(after.transfer_cycles - before.transfer_cycles, fill_cycles, 1e-9);
}

TEST(PinnedTraffic, SimulatorChargesTheSame) {
  auto ws = make_ws(three_kinds_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  a.array_layer["in"] = 0;
  a.array_layer["out"] = 1;
  oracles::CostEstimate cost = oracles::estimate_cost(ctx, a);
  sim::SimResult result = sim::simulate(ctx, a, {te::TransferMode::Blocking, {}});
  EXPECT_NEAR(result.total_cycles(), cost.total_cycles(), 1e-9);
  EXPECT_NEAR(result.energy_nj, cost.energy_nj, 1e-9);
}

TEST(PinnedTraffic, IdealModeHidesTheFillTime) {
  auto ws = make_ws(three_kinds_program());
  auto ctx = ws->context();
  Assignment a = out_of_box(ctx);
  a.array_layer["in"] = 0;
  sim::SimResult blocking = sim::simulate(ctx, a, {te::TransferMode::Blocking, {}});
  sim::SimResult ideal = sim::simulate(ctx, a, {te::TransferMode::Ideal, {}});
  EXPECT_GT(blocking.stall_cycles, 0.0);
  EXPECT_DOUBLE_EQ(ideal.stall_cycles, 0.0);
  EXPECT_DOUBLE_EQ(blocking.energy_nj, ideal.energy_nj);  // energy not hidden
}

TEST(PinnedTraffic, GreedyStillMigratesWhenWorthIt) {
  // A heavily re-read input: the fill is paid once, the access savings
  // recur — migration should still happen.
  ir::ProgramBuilder pb("p");
  pb.array("hot", {64}, 4).input();
  pb.begin_loop("r", 0, 1000);
  pb.begin_loop("i", 0, 64);
  pb.stmt("s", 1).read("hot", {av("i")});
  pb.end_loop();
  pb.end_loop();
  auto ws = make_ws(pb.finish());
  auto ctx = ws->context();
  SearchResult greedy = greedy_assign(ctx);
  // Whether via migration or a whole-array copy (equivalent here: one fill,
  // recurring savings), the reads must end up served on-chip.
  Resolution res = resolve(ctx, greedy.assignment);
  for (const analysis::AccessSite& site : ctx.sites) {
    if (site.access->array == "hot") {
      EXPECT_LT(res.site_layer[static_cast<std::size_t>(site.id)], ctx.hierarchy.background());
    }
  }
}

TEST(PinnedTraffic, GreedyAvoidsMigratingColdInputs) {
  // An input read exactly once: homing it on-chip pays a fill for nothing;
  // greedy must leave it off-chip.
  ir::ProgramBuilder pb("p");
  pb.array("cold", {64}, 4).input();
  pb.array("sink", {64}, 4).output();
  pb.begin_loop("i", 0, 64);
  pb.stmt("s", 1).read("cold", {av("i")}).write("sink", {av("i")});
  pb.end_loop();
  auto ws = make_ws(pb.finish());
  auto ctx = ws->context();
  SearchResult greedy = greedy_assign(ctx);
  EXPECT_EQ(greedy.assignment.layer_of("cold", -1), ctx.hierarchy.background());
}

}  // namespace
}  // namespace mhla::assign
