#include "assign/static_baseline.h"

#include <gtest/gtest.h>

#include "assign/search.h"
#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla::assign {
namespace {

using ir::av;
using testing::make_ws;

TEST(StaticBaseline, PlacesDensestArraysFirst) {
  // hot (high accesses/byte) must be placed before cold.
  ir::ProgramBuilder pb("p");
  pb.array("hot", {64}, 4).input();    // 256 B
  pb.array("cold", {64}, 4).input();   // 256 B
  pb.begin_loop("r", 0, 100);
  pb.begin_loop("i", 0, 64);
  pb.stmt("s", 1).read("hot", {av("i")});
  pb.end_loop();
  pb.end_loop();
  pb.begin_loop("j", 0, 64);
  pb.stmt("t", 1).read("cold", {av("j")});
  pb.end_loop();

  mem::PlatformConfig platform;
  platform.l1_bytes = 256;  // room for exactly one of them
  platform.l2_bytes = 0;
  auto ws = make_ws(pb.finish(), platform);
  auto ctx = ws->context();
  StaticBaselineResult result = static_baseline_assign(ctx);
  EXPECT_EQ(result.assignment.layer_of("hot", -1), 0);
  EXPECT_EQ(result.assignment.layer_of("cold", -1), ctx.hierarchy.background());
  EXPECT_EQ(result.arrays_placed, 1);
}

TEST(StaticBaseline, NeverSelectsCopies) {
  auto ws = make_ws(testing::blocked_reuse_program());
  StaticBaselineResult result = static_baseline_assign(ws->context());
  EXPECT_TRUE(result.assignment.copies.empty());
}

TEST(StaticBaseline, RespectsSumOfSizes) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  StaticBaselineResult result = static_baseline_assign(ctx);
  std::vector<ir::i64> used(static_cast<std::size_t>(ctx.hierarchy.num_layers()), 0);
  for (const ir::ArrayDecl& array : ctx.program.arrays()) {
    int layer = result.assignment.layer_of(array.name, ctx.hierarchy.background());
    used[static_cast<std::size_t>(layer)] += array.bytes();
  }
  for (int l = 0; l < ctx.hierarchy.background(); ++l) {
    EXPECT_LE(used[static_cast<std::size_t>(l)], ctx.hierarchy.layer(l).capacity_bytes);
  }
}

TEST(StaticBaseline, UnaccessedArraysStayOffChip) {
  ir::ProgramBuilder pb("p");
  pb.array("ghost", {8}, 4);
  pb.array("live", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("live", {av("i")});
  pb.end_loop();
  auto ws = make_ws(pb.finish());
  auto ctx = ws->context();
  StaticBaselineResult result = static_baseline_assign(ctx);
  EXPECT_EQ(result.assignment.layer_of("ghost", -1), ctx.hierarchy.background());
  EXPECT_EQ(result.assignment.layer_of("live", -1), 0);
}

TEST(StaticBaseline, BaselineIsFeasible) {
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = core::make_workspace(info.build(), {}, {});
    auto ctx = ws->context();
    StaticBaselineResult result = static_baseline_assign(ctx);
    // Sum-of-sizes is stricter than peak-footprint, so the result must
    // also pass the in-place feasibility check.
    EXPECT_TRUE(fits(ctx, result.assignment)) << info.name;
  }
}

TEST(StaticBaseline, MhlaBeatsOrMatchesItEverywhere) {
  // The paper's core argument: copy-based assignment with trade-off
  // exploration beats whole-array static allocation.
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = core::make_workspace(info.build(), {}, {});
    auto ctx = ws->context();
    Objective obj = oracles::make_objective(ctx, 1.0, 1.0);
    double baseline_scalar =
        oracles::scalar(obj, oracles::estimate_cost(ctx, static_baseline_assign(ctx).assignment));
    double mhla_scalar = greedy_assign(ctx).scalar;
    EXPECT_LE(mhla_scalar, baseline_scalar + 1e-9) << info.name;
  }
}

TEST(StaticBaseline, MhlaStrictlyWinsWhenArraysDontFit) {
  // Frames are far larger than on-chip memory: static allocation can place
  // nothing useful, MHLA's copies still capture the reuse.
  auto ws = core::make_workspace(apps::build_motion_estimation(), {}, {});
  auto ctx = ws->context();
  Objective obj = oracles::make_objective(ctx, 1.0, 1.0);
  double baseline_scalar =
      oracles::scalar(obj, oracles::estimate_cost(ctx, static_baseline_assign(ctx).assignment));
  double mhla_scalar = assign::greedy_assign(ctx).scalar;
  EXPECT_LT(mhla_scalar, baseline_scalar * 0.8);
}

}  // namespace
}  // namespace mhla::assign
