// Cross-implementation consistency checks.  The production simulator
// (sim::simulate) and the test suite's from-scratch static model
// (oracles::estimate_cost) are written independently; in Blocking mode they
// must agree on every app and every random program, for the out-of-box,
// greedy and branch-and-bound assignments.  The engine the searches run is
// pinned to the same reference bit for bit (CostEngine.* tests), so this
// is the suite's main oracle for search and simulator agreeing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gen/random_program.h"
#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla {
namespace {

/// Relative agreement of two doubles summed in different orders.
void expect_close(double actual, double expected, const char* what) {
  EXPECT_NEAR(actual, expected, 1e-12 * std::max(1.0, std::abs(expected))) << what;
}

/// The one simulator-against-reference check.  Blocking mode: cycles (each
/// component and the total), energy and the per-layer reads and writes
/// match `oracles::estimate_cost`; compute and access cycles are summed in
/// the same order, so they match bit for bit, and the counts are integers.
/// Every mode: energy and `layers` equal the Blocking run's exactly (the
/// model charges memory accesses only).
void expect_simulator_matches_reference(const assign::AssignContext& ctx,
                                        const assign::Assignment& assignment) {
  oracles::CostEstimate reference = oracles::estimate_cost(ctx, assignment);
  sim::SimResult blocking = sim::simulate(ctx, assignment, {te::TransferMode::Blocking, {}});
  EXPECT_EQ(blocking.compute_cycles, reference.compute_cycles);
  EXPECT_EQ(blocking.access_cycles, reference.access_cycles);
  expect_close(blocking.stall_cycles, reference.transfer_cycles, "stall vs transfer cycles");
  expect_close(blocking.total_cycles(), reference.total_cycles(), "total cycles");
  expect_close(blocking.energy_nj, reference.energy_nj, "energy");
  ASSERT_EQ(blocking.layers.size(), reference.layer_reads.size());
  for (std::size_t l = 0; l < blocking.layers.size(); ++l) {
    EXPECT_EQ(blocking.layers[l].reads, reference.layer_reads[l]) << "layer " << l;
    EXPECT_EQ(blocking.layers[l].writes, reference.layer_writes[l]) << "layer " << l;
  }

  for (te::TransferMode mode : {te::TransferMode::TimeExtended, te::TransferMode::Ideal}) {
    sim::SimResult other = sim::simulate(ctx, assignment, {mode, {}});
    EXPECT_EQ(other.energy_nj, blocking.energy_nj);
    ASSERT_EQ(other.layers.size(), blocking.layers.size());
    for (std::size_t l = 0; l < other.layers.size(); ++l) {
      EXPECT_EQ(other.layers[l].name, blocking.layers[l].name);
      EXPECT_EQ(other.layers[l].reads, blocking.layers[l].reads);
      EXPECT_EQ(other.layers[l].writes, blocking.layers[l].writes);
      EXPECT_EQ(other.layers[l].energy_nj, blocking.layers[l].energy_nj);
    }
  }
}

/// Out-of-box, greedy and branch-and-bound.  The bnb run carries a probe
/// budget, which lifts the placement guard, so every instance gets its
/// (possibly anytime) bnb assignment.
void expect_simulator_matches_reference_on_searches(const assign::AssignContext& ctx) {
  assign::SearchOptions bnb;
  bnb.budget.max_probes = 20000;
  const std::pair<const char*, assign::Assignment> checked[] = {
      {"out-of-box", assign::out_of_box(ctx)},
      {"greedy", assign::searcher("greedy").search(ctx, {}).assignment},
      {"bnb", assign::searcher("bnb").search(ctx, bnb).assignment},
  };
  for (const auto& [name, assignment] : checked) {
    SCOPED_TRACE(name);
    expect_simulator_matches_reference(ctx, assignment);
  }
}

class PerAppConsistency : public ::testing::TestWithParam<apps::AppInfo> {};

TEST_P(PerAppConsistency, SimulatorMatchesCostModel) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  expect_simulator_matches_reference_on_searches(ws->context());
}

TEST(Simulator, MatchesCostModelOverRandomCorpus) {
  // The hand-built fixtures, then the seeded corpus on the small test
  // platform and on the default one.  Seed 0 rides along: the fuzz suite's
  // range starts there.
  for (auto builder : {testing::tiny_stream_program, testing::producer_consumer_program,
                       testing::blocked_reuse_program}) {
    auto ws = testing::make_ws(builder());
    SCOPED_TRACE(ws->program().name());
    expect_simulator_matches_reference_on_searches(ws->context());
  }
  const int seeds = testing::corpus_seeds();
  for (std::uint32_t seed = 0; seed <= static_cast<std::uint32_t>(seeds); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const mem::PlatformConfig& platform :
         {testing::small_platform(), mem::PlatformConfig{}}) {
      auto ws = testing::make_ws(gen::random_program(seed), platform);
      expect_simulator_matches_reference_on_searches(ws->context());
    }
  }
}

TEST_P(PerAppConsistency, GreedyAssignmentSurvivesResolveRoundtrip) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  EXPECT_TRUE(assign::layering_valid(ctx, greedy.assignment));
  EXPECT_TRUE(assign::fits(ctx, greedy.assignment));

  assign::Resolution res = assign::resolve(ctx, greedy.assignment);
  EXPECT_EQ(res.site_layer.size(), ctx.sites.size());
  EXPECT_EQ(res.transfers.size(), greedy.assignment.copies.size());
  for (int layer : res.site_layer) {
    EXPECT_GE(layer, 0);
    EXPECT_LT(layer, ctx.hierarchy.num_layers());
  }
}

TEST_P(PerAppConsistency, TeNeverExceedsBlockingNorUndercutsIdeal) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  sim::SimResult blocking = sim::simulate(ctx, a, {te::TransferMode::Blocking, {}});
  sim::SimResult extended = sim::simulate(ctx, a, {te::TransferMode::TimeExtended, {}});
  sim::SimResult ideal = sim::simulate(ctx, a, {te::TransferMode::Ideal, {}});
  EXPECT_LE(extended.total_cycles(), blocking.total_cycles() + 1e-9);
  EXPECT_GE(extended.total_cycles(), ideal.total_cycles() - 1e-9);
}

TEST_P(PerAppConsistency, TeFootprintStaysWithinConstraint) {
  auto ws = core::make_workspace(GetParam().build(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  auto bts = te::collect_block_transfers(ctx, a);
  te::TeResult result = te::time_extend(ctx, a, bts);
  EXPECT_TRUE(assign::fits(ctx, a, result.footprint_extensions));
}

INSTANTIATE_TEST_SUITE_P(AllNine, PerAppConsistency, ::testing::ValuesIn(apps::all_apps()),
                         [](const ::testing::TestParamInfo<apps::AppInfo>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace mhla
