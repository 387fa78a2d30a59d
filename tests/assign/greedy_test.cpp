#include "assign/search.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla::assign {
namespace {

using testing::make_ws;

TEST(Greedy, ImprovesOverBaseline) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchResult result = greedy_assign(ctx);
  Objective obj = oracles::make_objective(ctx, 1.0, 1.0);
  double baseline = oracles::scalar(obj, oracles::estimate_cost(ctx, out_of_box(ctx)));
  EXPECT_LT(result.scalar, baseline);
  EXPECT_FALSE(result.moves.empty());
}

TEST(Greedy, ResultIsFeasibleAndLayeringValid) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchResult result = greedy_assign(ctx);
  EXPECT_TRUE(fits(ctx, result.assignment));
  EXPECT_TRUE(layering_valid(ctx, result.assignment));
}

TEST(Greedy, MovesHavePositiveGainsInChosenOrder) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchResult result = greedy_assign(ctx);
  for (const GreedyMove& move : result.moves) {
    EXPECT_GT(move.gain, 0.0);
    EXPECT_GT(move.gain_per_byte, 0.0);
  }
}

TEST(Greedy, FinalScalarMatchesReevaluation) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchResult result = greedy_assign(ctx);
  Objective obj = oracles::make_objective(ctx, 1.0, 1.0);
  EXPECT_NEAR(result.scalar, oracles::scalar(obj, oracles::estimate_cost(ctx, result.assignment)),
              1e-9);
}

TEST(Greedy, NoOnChipLayersMeansNoMoves) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 0;
  platform.l2_bytes = 0;
  auto ws = make_ws(testing::blocked_reuse_program(), platform);
  auto ctx = ws->context();
  SearchResult result = greedy_assign(ctx);
  EXPECT_TRUE(result.moves.empty());
  EXPECT_TRUE(result.assignment.copies.empty());
}

TEST(Greedy, RespectsTinyCapacity) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 64;
  platform.l2_bytes = 0;
  auto ws = make_ws(testing::blocked_reuse_program(), platform);
  auto ctx = ws->context();
  SearchResult result = greedy_assign(ctx);
  EXPECT_TRUE(fits(ctx, result.assignment));
  for (const PlacedCopy& pc : result.assignment.copies) {
    EXPECT_LE(ctx.reuse.candidate(pc.cc_id).bytes, 64);
  }
}

TEST(Greedy, MaxMovesBoundsAcceptedMoves) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.max_moves = 1;
  SearchResult result = greedy_assign(ctx, options);
  EXPECT_LE(result.moves.size(), 1u);
}

TEST(Greedy, ArrayMigrationCanBeDisabled) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.allow_array_migration = false;
  SearchResult result = greedy_assign(ctx, options);
  int background = ctx.hierarchy.background();
  for (const ir::ArrayDecl& array : ctx.program.arrays()) {
    EXPECT_EQ(result.assignment.layer_of(array.name, background), background);
  }
}

TEST(Greedy, EnergyTargetNeverWorsensEnergy) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.energy_weight = 1.0;
  options.time_weight = 0.0;
  SearchResult result = greedy_assign(ctx, options);
  oracles::CostEstimate baseline = oracles::estimate_cost(ctx, out_of_box(ctx));
  oracles::CostEstimate optimized = oracles::estimate_cost(ctx, result.assignment);
  EXPECT_LE(optimized.energy_nj, baseline.energy_nj);
}

TEST(Greedy, TimeTargetNeverWorsensTime) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.energy_weight = 0.0;
  options.time_weight = 1.0;
  SearchResult result = greedy_assign(ctx, options);
  oracles::CostEstimate baseline = oracles::estimate_cost(ctx, out_of_box(ctx));
  oracles::CostEstimate optimized = oracles::estimate_cost(ctx, result.assignment);
  EXPECT_LE(optimized.total_cycles(), baseline.total_cycles());
}

TEST(Greedy, EvaluationCountIsReported) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchResult result = greedy_assign(ctx);
  EXPECT_GT(result.evaluations, 0);
}

TEST(Step1, TargetMapping) {
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  // Each target must produce a feasible assignment; energy-only and
  // time-only runs may differ from balanced.
  for (Target target : {Target::Energy, Target::Time, Target::Balanced}) {
    SearchResult result = searcher("greedy").search(ctx, SearchOptions{}.set_target(target));
    EXPECT_TRUE(fits(ctx, result.assignment));
  }
}

}  // namespace
}  // namespace mhla::assign
