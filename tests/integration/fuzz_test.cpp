// Fuzz property tests: every pipeline invariant, checked on seeded random
// programs.  Catches interactions no hand-written case covers.

#include <gtest/gtest.h>

#include "helpers.h"
#include "ir/serialize.h"
#include "ir/validate.h"
#include "oracles/oracles.h"
#include "gen/random_program.h"

namespace mhla {
namespace {

class Fuzz : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  ir::Program program_ = gen::random_program(GetParam());
};

TEST_P(Fuzz, GeneratedProgramIsValid) {
  EXPECT_TRUE(ir::validate(program_).empty()) << ir::serialize(program_);
}

TEST_P(Fuzz, SerializeRoundTripIsIdentity) {
  std::string once = ir::serialize(program_);
  std::string twice = ir::serialize(ir::parse_program(once));
  EXPECT_EQ(once, twice);
}

TEST_P(Fuzz, TraceMatchesAnalyticCounts) {
  oracles::ExactCounts exact = oracles::enumerate_program(program_, 2'000'000);
  if (exact.truncated) GTEST_SKIP() << "program too large for enumeration";
  EXPECT_TRUE(exact.in_bounds);
  auto sites = analysis::collect_sites(program_);
  std::map<std::string, ir::i64> analytic;
  for (const analysis::AccessSite& site : sites) {
    analytic[site.access->array] += site.dynamic_accesses();
  }
  for (const auto& [array, count] : analytic) {
    EXPECT_EQ(count, exact.accesses_per_array[array]) << array;
  }
}

TEST_P(Fuzz, FootprintsAreSound) {
  auto sites = analysis::collect_sites(program_);
  analysis::ReuseAnalysis reuse = analysis::ReuseAnalysis::run(program_, sites);
  for (const analysis::CopyCandidate& cc : reuse.candidates()) {
    for (int site_id : cc.site_ids) {
      const analysis::AccessSite& site = sites[static_cast<std::size_t>(site_id)];
      if (site.iterations() > 200'000) continue;  // keep the test fast
      ir::i64 exact =
          oracles::exact_footprint_elems(program_, site, static_cast<std::size_t>(cc.level));
      EXPECT_GE(cc.elems, exact) << "cc " << cc.id << " site " << site_id << "\n"
                                 << ir::serialize(program_);
    }
  }
}

TEST_P(Fuzz, GreedyIsFeasibleAndNeverWorseThanBaseline) {
  auto ws = core::make_workspace(gen::random_program(GetParam()), {}, {});
  auto ctx = ws->context();
  assign::SearchResult greedy = assign::greedy_assign(ctx);
  EXPECT_TRUE(assign::fits(ctx, greedy.assignment));
  EXPECT_TRUE(assign::layering_valid(ctx, greedy.assignment));
  assign::Objective obj = oracles::make_objective(ctx, 1.0, 1.0);
  EXPECT_LE(greedy.scalar,
            oracles::scalar(obj, oracles::estimate_cost(ctx, assign::out_of_box(ctx))) + 1e-9);
}

TEST_P(Fuzz, TransferModeOrderingHolds) {
  auto ws = core::make_workspace(gen::random_program(GetParam()), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  double blocking =
      sim::simulate(ctx, a, {te::TransferMode::Blocking, {}}).total_cycles();
  double extended =
      sim::simulate(ctx, a, {te::TransferMode::TimeExtended, {}}).total_cycles();
  double ideal = sim::simulate(ctx, a, {te::TransferMode::Ideal, {}}).total_cycles();
  EXPECT_LE(ideal, extended + 1e-9);
  EXPECT_LE(extended, blocking + 1e-9);
}

TEST_P(Fuzz, EnergyInvariantUnderTransferMode) {
  auto ws = core::make_workspace(gen::random_program(GetParam()), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  double blocking = sim::simulate(ctx, a, {te::TransferMode::Blocking, {}}).energy_nj;
  double extended = sim::simulate(ctx, a, {te::TransferMode::TimeExtended, {}}).energy_nj;
  EXPECT_DOUBLE_EQ(blocking, extended);
}

TEST_P(Fuzz, TeFootprintExtensionsStayFeasible) {
  auto ws = core::make_workspace(gen::random_program(GetParam()), {}, {});
  auto ctx = ws->context();
  assign::Assignment a = assign::greedy_assign(ctx).assignment;
  auto bts = te::collect_block_transfers(ctx, a);
  te::TeResult result = te::time_extend(ctx, a, bts);
  EXPECT_TRUE(assign::fits(ctx, a, result.footprint_extensions));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint32_t>(0, 24));

}  // namespace
}  // namespace mhla
