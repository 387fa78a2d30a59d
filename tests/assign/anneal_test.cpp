#include "assign/search.h"

#include <gtest/gtest.h>

#include "assign/cost.h"
#include "core/pipeline.h"
#include "explore/sweep.h"
#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla::assign {
namespace {

TEST(Anneal, BitIdenticalForAFixedSeed) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.anneal_seed = 42;
  SearchResult first = anneal_assign(ctx, options);
  SearchResult second = anneal_assign(ctx, options);
  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_EQ(first.scalar, second.scalar);
  EXPECT_EQ(first.evaluations, second.evaluations);
}

TEST(Anneal, FeasibleAndNeverWorseThanOutOfBox) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  Objective objective = oracles::make_objective(ctx, 1.0, 1.0);
  double baseline = oracles::scalar(objective, oracles::estimate_cost(ctx, out_of_box(ctx)));
  for (std::uint32_t seed : {1u, 7u, 1234u}) {
    SearchOptions options;
    options.anneal_seed = seed;
    SearchResult result = anneal_assign(ctx, options);
    EXPECT_TRUE(fits(ctx, result.assignment)) << "seed " << seed;
    EXPECT_TRUE(layering_valid(ctx, result.assignment)) << "seed " << seed;
    EXPECT_LE(result.scalar, baseline) << "seed " << seed;
    EXPECT_EQ(oracles::scalar(objective, oracles::estimate_cost(ctx, result.assignment)),
              result.scalar)
        << "seed " << seed;
  }
}

TEST(Anneal, FindsImprovementsOnAReuseWorkload) {
  // The blocked program has an obvious winning copy; a 2000-iteration walk
  // that never finds *any* improvement would be broken.
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  Objective objective = oracles::make_objective(ctx, 1.0, 1.0);
  double baseline = oracles::scalar(objective, oracles::estimate_cost(ctx, out_of_box(ctx)));
  SearchResult result = anneal_assign(ctx, {});
  EXPECT_LT(result.scalar, baseline);
}

TEST(Anneal, HandlesAProgramWithNoArrays) {
  // A compute-only program is valid; the migrate branch must not draw from
  // an empty array list (regression: modulo-by-zero).
  ir::ProgramBuilder pb("no_arrays");
  pb.begin_loop("i", 0, 8);
  pb.stmt("spin", 3);
  pb.end_loop();
  auto ws = testing::make_ws(pb.finish());
  auto ctx = ws->context();
  SearchOptions options;
  options.anneal_iterations = 200;
  SearchResult result = anneal_assign(ctx, options);
  EXPECT_TRUE(result.assignment.copies.empty());
  EXPECT_GT(result.scalar, 0.0);
}

TEST(Anneal, RunsThroughThePipelineByStrategyName) {
  core::PipelineConfig config;
  config.strategy = "anneal";
  config.platform = testing::small_platform();
  config.search.anneal_iterations = 300;
  core::Pipeline pipeline(config);
  core::PipelineResult run = pipeline.run(testing::blocked_reuse_program());
  EXPECT_EQ(run.strategy, "anneal");
  EXPECT_GT(run.search.evaluations, 0);
  EXPECT_TRUE(run.points.mhla.feasible);
}

TEST(Anneal, SweepIsBitIdenticalAcrossThreadCounts) {
  xplore::SweepConfig config;
  config.l1_sizes = {256, 1024, 4096};
  config.l2_sizes = {0, 8192};
  config.pipeline.strategy = "anneal";
  config.pipeline.search.anneal_iterations = 400;

  config.pipeline.num_threads = 1;
  auto serial = xplore::sweep_layer_sizes(testing::blocked_reuse_program(), config);
  ASSERT_EQ(serial.size(), 6u);

  config.pipeline.num_threads = 4;
  auto parallel = xplore::sweep_layer_sizes(testing::blocked_reuse_program(), config);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].point.cycles, serial[i].point.cycles);
    EXPECT_EQ(parallel[i].point.energy_nj, serial[i].point.energy_nj);
    EXPECT_EQ(parallel[i].assignment, serial[i].assignment);
  }
}

}  // namespace
}  // namespace mhla::assign
