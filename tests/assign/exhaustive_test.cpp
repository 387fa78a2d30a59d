#include "assign/search.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "core/driver.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla::assign {
namespace {

using ir::av;
using testing::make_ws;

/// Minimal program: one array, one loop, few candidates — exhaustively
/// searchable.
ir::Program micro_program() {
  ir::ProgramBuilder pb("micro");
  pb.array("a", {16}, 4).input();
  pb.begin_loop("r", 0, 8);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  pb.end_loop();
  return pb.finish();
}

TEST(Exhaustive, FindsAtLeastAsGoodAsGreedy) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();

  SearchResult oracle = exhaustive_assign(ctx);
  SearchResult greedy = greedy_assign(ctx);
  EXPECT_LE(oracle.scalar, greedy.scalar + 1e-9);
  EXPECT_GT(oracle.states_explored, 0);
  EXPECT_EQ(oracle.status, SearchStatus::Optimal);
}

TEST(Exhaustive, BestIsFeasibleAndValid) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();
  SearchResult oracle = exhaustive_assign(ctx);
  EXPECT_TRUE(fits(ctx, oracle.assignment));
  EXPECT_TRUE(layering_valid(ctx, oracle.assignment));
}

TEST(Exhaustive, BeatsBaselineOnReuseProgram) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();
  SearchResult oracle = exhaustive_assign(ctx);
  Objective obj = oracles::make_objective(ctx, 1.0, 1.0);
  EXPECT_LT(oracle.scalar, oracles::scalar(obj, oracles::estimate_cost(ctx, out_of_box(ctx))));
}

TEST(Exhaustive, ThrowsOnLargeInstance) {
  // wavelet: 54 candidates x 2 on-chip layers = 108 placements, over the
  // engine guard (64) and far over the reference guard (24).
  auto ws = make_ws(mhla::apps::build_wavelet());
  auto ctx = ws->context();
  EXPECT_THROW(exhaustive_assign(ctx), std::invalid_argument);
  EXPECT_THROW(oracles::exhaustive_reference(ctx), std::invalid_argument);
}

TEST(Exhaustive, ReferenceGuardStillRejectsMediumInstance) {
  // motion_estimation (46 placements) is too big for the un-pruned
  // reference enumeration but within the branch-and-bound guard.
  auto ws = make_ws(mhla::apps::build_motion_estimation());
  auto ctx = ws->context();
  EXPECT_THROW(oracles::exhaustive_reference(ctx), std::invalid_argument);
}

TEST(Exhaustive, BranchAndBoundAcceptsMediumInstance) {
  // The raised guard admits motion_estimation; a small state budget keeps
  // the test fast while proving the search runs and returns a valid result.
  auto ws = make_ws(mhla::apps::build_motion_estimation());
  auto ctx = ws->context();
  SearchOptions options;
  options.max_states = 20000;
  SearchResult result = exhaustive_assign(ctx, options);
  EXPECT_GT(result.states_explored, 0);
  EXPECT_TRUE(fits(ctx, result.assignment));
  EXPECT_TRUE(layering_valid(ctx, result.assignment));
  SearchResult greedy = greedy_assign(ctx);
  if (result.status == SearchStatus::Optimal) {
    EXPECT_LE(result.scalar, greedy.scalar + 1e-9);
  }
}

TEST(Exhaustive, EngineMatchesReferenceEnumeration) {
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = make_ws(micro_program(), platform);
  auto ctx = ws->context();
  SearchResult pruned = exhaustive_assign(ctx);
  SearchResult reference = oracles::exhaustive_reference(ctx);
  EXPECT_EQ(pruned.assignment, reference.assignment);
  EXPECT_EQ(pruned.scalar, reference.scalar);  // bit-identical
  EXPECT_LE(pruned.states_explored, reference.states_explored);
}

TEST(Exhaustive, StateBudgetIsHonored) {
  // Six candidates on two on-chip layers: even from the greedy incumbent
  // the search needs more than two states (on the single-candidate micro
  // program the seed alone can prune it down to two).
  auto ws = make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  SearchOptions options;
  options.max_states = 2;
  SearchResult result = exhaustive_assign(ctx, options);
  EXPECT_NE(result.status, SearchStatus::Optimal);
  EXPECT_LE(result.states_explored, 3);
}

TEST(Exhaustive, CopyPhaseHonorsTheProbeBudget) {
  // An instance whose copy phase is almost all of the work: unbounded, bnb
  // needs seconds and tens of millions of copy-phase nodes for a few
  // hundred leaves, so a budget charged only at leaves and array-phase
  // nodes would never bind in time.
  gen::RandomProgramConfig shape;
  shape.max_nests = 4;
  shape.max_arrays = 5;
  auto ws = core::make_workspace(gen::random_program(4047144048u, shape));
  auto ctx = ws->context();

  SearchOptions bounded;
  bounded.budget.max_probes = 10000;
  auto start = std::chrono::steady_clock::now();
  SearchResult result = searcher("bnb").search(ctx, bounded);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  EXPECT_LT(seconds, 0.5);
  EXPECT_EQ(result.status, SearchStatus::BudgetExhausted);
  EXPECT_TRUE(fits(ctx, result.assignment));
  EXPECT_GE(result.gap, 0.0);
  EXPECT_TRUE(std::isfinite(result.gap));
  EXPECT_LE(result.lower_bound, result.scalar);
}

}  // namespace
}  // namespace mhla::assign
