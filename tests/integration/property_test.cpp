// Parameterized property sweeps over platform sizes: invariants that must
// hold for *every* configuration, on a representative workload.

#include <gtest/gtest.h>

#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla {
namespace {

struct PlatformCase {
  ir::i64 l1;
  ir::i64 l2;
};

std::string case_name(const ::testing::TestParamInfo<PlatformCase>& info) {
  return "L1_" + std::to_string(info.param.l1) + "_L2_" + std::to_string(info.param.l2);
}

class PlatformSweep : public ::testing::TestWithParam<PlatformCase> {
 protected:
  std::unique_ptr<core::Workspace> ws_ = [] {
    PlatformCase c = GetParam();
    mem::PlatformConfig platform;
    platform.l1_bytes = c.l1;
    platform.l2_bytes = c.l2;
    return core::make_workspace(apps::build_cavity_detection(), platform, {});
  }();
};

TEST_P(PlatformSweep, GreedyNeverWorseThanBaseline) {
  auto ctx = ws_->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  assign::Objective obj = oracles::make_objective(ctx, 1.0, 1.0);
  double baseline = oracles::scalar(obj, oracles::estimate_cost(ctx, assign::out_of_box(ctx)));
  EXPECT_LE(greedy.scalar, baseline + 1e-9);
}

TEST_P(PlatformSweep, ResultAlwaysFeasible) {
  auto ctx = ws_->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  EXPECT_TRUE(assign::fits(ctx, greedy.assignment));
  EXPECT_TRUE(assign::layering_valid(ctx, greedy.assignment));
}

TEST_P(PlatformSweep, SimAgreesWithCost) {
  auto ctx = ws_->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  oracles::CostEstimate cost = oracles::estimate_cost(ctx, greedy.assignment);
  sim::SimResult result = sim::simulate(ctx, greedy.assignment);
  EXPECT_NEAR(result.total_cycles(), cost.total_cycles(), 1e-6 * cost.total_cycles());
  EXPECT_NEAR(result.energy_nj, cost.energy_nj, 1e-6 * cost.energy_nj);
}

TEST_P(PlatformSweep, EnergyInvariantUnderTe) {
  auto ctx = ws_->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  sim::SimResult blocking = sim::simulate(ctx, greedy.assignment,
                                          {te::TransferMode::Blocking, {}});
  sim::SimResult extended = sim::simulate(ctx, greedy.assignment,
                                          {te::TransferMode::TimeExtended, {}});
  EXPECT_DOUBLE_EQ(blocking.energy_nj, extended.energy_nj);
}

TEST_P(PlatformSweep, ModeOrderingHolds) {
  auto ctx = ws_->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  double blocking =
      sim::simulate(ctx, greedy.assignment, {te::TransferMode::Blocking, {}}).total_cycles();
  double extended =
      sim::simulate(ctx, greedy.assignment, {te::TransferMode::TimeExtended, {}}).total_cycles();
  double ideal =
      sim::simulate(ctx, greedy.assignment, {te::TransferMode::Ideal, {}}).total_cycles();
  EXPECT_LE(ideal, extended + 1e-9);
  EXPECT_LE(extended, blocking + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Platforms, PlatformSweep,
                         ::testing::Values(PlatformCase{0, 0}, PlatformCase{256, 0},
                                           PlatformCase{1024, 0}, PlatformCase{4096, 0},
                                           PlatformCase{0, 65536}, PlatformCase{1024, 16384},
                                           PlatformCase{4096, 131072},
                                           PlatformCase{16384, 262144}),
                         case_name);

class LookaheadSweep : public ::testing::TestWithParam<int> {};

TEST_P(LookaheadSweep, DeeperLookaheadNeverHurts) {
  auto ws = core::make_workspace(apps::build_adpcm_coder(), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;

  te::TeOptions shallow;
  shallow.max_lookahead = 1;
  te::TeOptions deep;
  deep.max_lookahead = GetParam();

  auto bts = te::collect_block_transfers(ctx, a);
  double hidden_shallow = te::time_extend(ctx, a, bts, shallow).total_hidden_cycles;
  double hidden_deep = te::time_extend(ctx, a, bts, deep).total_hidden_cycles;
  EXPECT_GE(hidden_deep, hidden_shallow - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Depths, LookaheadSweep, ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace mhla
