// Differential-testing harness for the search-strategy registry: every
// production search must agree with its from-scratch oracle (tests/oracles/)
// over a randomized corpus, and every heuristic must be dominated by the
// exact optimum wherever the optimum is computable.
//
//   greedy   vs oracles::greedy_reference     — bit-identical, move for move
//                                               (kind, candidate, array,
//                                               layer, gain, gain per byte)
//   bnb      vs oracles::exhaustive_reference — identical optimum (pruning
//                                               never changes it), never
//                                               more states
//   bnb-par  vs bnb                           — identical optimum for any
//                                               thread count and any steal
//                                               schedule
//   greedy / anneal                           — scalar dominated by the
//                                               exact optimum
//
// Corpus size: MHLA_DIFF_SEEDS (default 50).  CI runs the full corpus in
// Release and a reduced one under ASan (the generator is seeded, so seed k
// names the same program in both).  Comparisons are skipped when an
// instance exceeds a path's placement guard or exhausts its state budget
// (budget-bound runs are legitimately path-dependent); the harness asserts
// minimum comparison counts so the suite cannot silently go vacuous.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "assign/search.h"
#include "core/driver.h"
#include "explore/explorer.h"
#include "gen/random_program.h"
#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla {
namespace {

std::size_t candidate_placements(const assign::AssignContext& ctx) {
  return ctx.reuse.candidates().size() *
         static_cast<std::size_t>(std::max(ctx.hierarchy.background(), 1));
}

/// Registry greedy against the from-scratch oracle: the same walk, move for
/// move and bit for bit, not merely the same final assignment.
void expect_greedy_matches_oracle(const assign::AssignContext& ctx,
                                  const assign::SearchResult& greedy) {
  assign::SearchResult oracle = oracles::greedy_reference(ctx);
  EXPECT_EQ(greedy.assignment, oracle.assignment);
  EXPECT_EQ(greedy.scalar, oracle.scalar);
  EXPECT_EQ(greedy.evaluations, oracle.evaluations);
  ASSERT_EQ(greedy.moves.size(), oracle.moves.size());
  for (std::size_t i = 0; i < greedy.moves.size(); ++i) {
    SCOPED_TRACE("move " + std::to_string(i));
    EXPECT_EQ(greedy.moves[i].kind, oracle.moves[i].kind);
    EXPECT_EQ(greedy.moves[i].cc_id, oracle.moves[i].cc_id);
    EXPECT_EQ(greedy.moves[i].array, oracle.moves[i].array);
    EXPECT_EQ(greedy.moves[i].layer, oracle.moves[i].layer);
    EXPECT_EQ(greedy.moves[i].gain, oracle.moves[i].gain);
    EXPECT_EQ(greedy.moves[i].gain_per_byte, oracle.moves[i].gain_per_byte);
  }
}

TEST(Differential, RegistryStrategyPairsAgreeOverRandomCorpus) {
  const int seeds = testing::corpus_seeds();
  int greedy_compared = 0;
  int exact_compared = 0;
  int parallel_compared = 0;
  int dominance_checked = 0;

  for (std::uint32_t seed = 1; seed <= static_cast<std::uint32_t>(seeds); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ws = testing::make_ws(gen::random_program(seed));
    auto ctx = ws->context();
    std::size_t placements = candidate_placements(ctx);

    // Heuristic pair: engine-backed greedy must replay the from-scratch
    // oracle move for move on every instance.
    assign::SearchOptions options;
    assign::SearchResult greedy = assign::searcher("greedy").search(ctx, options);
    expect_greedy_matches_oracle(ctx, greedy);
    EXPECT_TRUE(assign::fits(ctx, greedy.assignment));
    EXPECT_TRUE(assign::layering_valid(ctx, greedy.assignment));
    ++greedy_compared;

    // Exact pair: branch-and-bound against the un-pruned oracle
    // enumeration, where the oracle's guard admits the instance and
    // neither search runs out of budget.
    bool have_optimum = false;
    assign::SearchResult optimum;
    if (placements <= assign::kReferencePlacementGuard) {
      assign::SearchOptions exact = options;
      exact.max_states = 120000;
      assign::SearchOptions oracle_options;
      oracle_options.max_states = exact.max_states;
      assign::SearchResult reference = oracles::exhaustive_reference(ctx, oracle_options);
      assign::SearchResult bnb = assign::searcher("bnb").search(ctx, exact);
      if (reference.status == assign::SearchStatus::Optimal &&
          bnb.status == assign::SearchStatus::Optimal) {
        EXPECT_EQ(bnb.assignment, reference.assignment);
        EXPECT_EQ(bnb.scalar, reference.scalar);
        EXPECT_LE(bnb.states_explored, reference.states_explored);
        have_optimum = true;
        optimum = std::move(bnb);
        ++exact_compared;
      }
    }

    // Parallel pair: bnb-par must reproduce serial bnb bit for bit at
    // several thread counts (the shared incumbent only prunes).  One
    // worker is the serial search itself, so its counters match too.
    if (placements <= assign::kEnginePlacementGuard) {
      assign::SearchOptions serial_options = options;
      serial_options.max_states = 300000;
      assign::SearchResult serial = assign::searcher("bnb").search(ctx, serial_options);
      if (serial.status == assign::SearchStatus::Optimal) {
        if (!have_optimum) {
          have_optimum = true;
          optimum = serial;
        }
        for (unsigned threads : {1u, 2u, 3u}) {
          assign::SearchOptions par_options = serial_options;
          par_options.bnb_threads = threads;
          assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, par_options);
          // max_states bounds each worker separately and pruning depends on
          // incumbent timing, so a worker can run out of budget even when
          // the serial search did not; bit-identity is only guaranteed
          // budget-free.
          if (parallel.status != assign::SearchStatus::Optimal) continue;
          EXPECT_EQ(parallel.assignment, serial.assignment) << "threads " << threads;
          EXPECT_EQ(parallel.scalar, serial.scalar) << "threads " << threads;
          if (threads == 1) {
            EXPECT_EQ(parallel.states_explored, serial.states_explored);
            EXPECT_EQ(parallel.bound_prunes, serial.bound_prunes);
            EXPECT_EQ(parallel.capacity_prunes, serial.capacity_prunes);
          }
        }
        ++parallel_compared;
      }
    }

    // Dominance: no heuristic may beat the exact optimum (the tiny margin
    // absorbs the heuristics' independently accumulated float sums).
    if (have_optimum) {
      EXPECT_TRUE(assign::fits(ctx, optimum.assignment));
      EXPECT_TRUE(assign::layering_valid(ctx, optimum.assignment));
      EXPECT_GE(greedy.scalar, optimum.scalar * (1.0 - 1e-9));
      assign::SearchResult anneal = assign::searcher("anneal").search(ctx, options);
      EXPECT_TRUE(assign::fits(ctx, anneal.assignment));
      EXPECT_GE(anneal.scalar, optimum.scalar * (1.0 - 1e-9));
      ++dominance_checked;
    }
  }

  // The corpus must actually exercise every pair — if the generator or the
  // guards drift, fail loudly instead of passing on zero comparisons.
  EXPECT_EQ(greedy_compared, seeds);
  EXPECT_GE(exact_compared, std::max(1, seeds / 5));
  EXPECT_GE(parallel_compared, std::max(1, seeds / 2));
  EXPECT_GE(dominance_checked, std::max(1, seeds / 2));
}

/// The two registry applications the determinism stress runs on: both fit
/// the branch-and-bound placement guard on the default platform.
std::vector<std::string> stress_apps() { return {"conv_filter", "cavity_detection"}; }

TEST(Differential, BnbParIsBitIdenticalAcrossThreadCounts) {
  // bnb-par must reproduce the serial optimum bit for bit at every thread
  // count.  The subtree interleaving depends on steal timing, so the same
  // gate covers "any steal schedule".  One worker is the serial search
  // itself, so there even the state count matches.
  for (const std::string& app : stress_apps()) {
    SCOPED_TRACE(app);
    auto ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    auto ctx = ws->context();
    assign::SearchOptions options;
    assign::SearchResult serial = assign::searcher("bnb").search(ctx, options);
    ASSERT_EQ(serial.status, assign::SearchStatus::Optimal);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      assign::SearchOptions par_options = options;
      par_options.bnb_threads = threads;
      assign::SearchResult parallel = assign::searcher("bnb-par").search(ctx, par_options);
      EXPECT_EQ(parallel.assignment, serial.assignment);
      EXPECT_EQ(parallel.scalar, serial.scalar);
      EXPECT_EQ(parallel.status, assign::SearchStatus::Optimal);
      if (threads == 1) {
        EXPECT_EQ(parallel.states_explored, serial.states_explored);
        EXPECT_EQ(parallel.bound_prunes, serial.bound_prunes);
        EXPECT_EQ(parallel.capacity_prunes, serial.capacity_prunes);
      }
    }
  }
}

TEST(Differential, GreedyMatchesOracleMoveForMove) {
  // On the registry applications every score, verdict, probe point,
  // tie-break and accepted move of the engine walk — batched round scoring
  // included — must match the from-scratch oracle bit for bit.
  for (const std::string& app : stress_apps()) {
    SCOPED_TRACE(app);
    auto ws = core::make_workspace(apps::build_app(app), mem::PlatformConfig{}, {});
    auto ctx = ws->context();
    assign::SearchResult greedy = assign::searcher("greedy").search(ctx, {});
    EXPECT_FALSE(greedy.moves.empty());
    expect_greedy_matches_oracle(ctx, greedy);
  }
}

TEST(Differential, ExplorerWithBnbParIsBitIdenticalAcrossThreadCounts) {
  // The exploration engine can put the parallel searcher on its strategy
  // axis; the joint result — every sample and the frontier — must not
  // depend on the explorer's own worker count or on bnb-par's.
  for (const std::string& app : stress_apps()) {
    SCOPED_TRACE(app);
    ir::Program program = apps::build_app(app);
    xplore::ExplorerConfig config;
    config.l1_axis = {256, 1024, 4096};
    config.l2_axis = {0, 8192};
    config.strategies = {"greedy", "bnb-par"};
    config.pipeline.search.bnb_threads = 2;

    config.pipeline.num_threads = 1;
    xplore::ExploreResult serial = xplore::Explorer(config).run(program);
    ASSERT_FALSE(serial.samples.empty());

    for (unsigned threads : {2u, 4u, 8u}) {
      config.pipeline.num_threads = threads;
      xplore::ExploreResult parallel = xplore::Explorer(config).run(program);
      ASSERT_EQ(parallel.samples.size(), serial.samples.size()) << "threads " << threads;
      for (std::size_t i = 0; i < serial.samples.size(); ++i) {
        EXPECT_EQ(parallel.samples[i].cell, serial.samples[i].cell);
        EXPECT_EQ(parallel.samples[i].point.cycles, serial.samples[i].point.cycles);
        EXPECT_EQ(parallel.samples[i].point.energy_nj, serial.samples[i].point.energy_nj);
      }
      ASSERT_EQ(parallel.frontier.size(), serial.frontier.size()) << "threads " << threads;
      for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
        EXPECT_EQ(parallel.frontier[i].cycles, serial.frontier[i].cycles);
        EXPECT_EQ(parallel.frontier[i].energy_nj, serial.frontier[i].energy_nj);
      }
    }
  }
}

}  // namespace
}  // namespace mhla
