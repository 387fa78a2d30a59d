// Zero-steady-state-allocation regression for the search hot path.
//
// The data-layout pass pays all allocation at setup: term tables, CSR
// topology, scorer scratch, and the arena-backed undo journals are sized in
// the CostEngine/FootprintTracker constructors, so every subsequent move —
// select, remove, migrate, home change, extension, undo, scalar read,
// feasibility probe, batched round scoring — is loads and stores into
// existing blocks.  These tests pin that property with the binary-wide
// counting allocator from tests/helpers_alloc.cpp: warm each move kind once
// (the lazy high-water marks fill on the first cycle), then assert that
// hundreds of further cycles perform literally zero heap allocations.
//
// What must NOT appear inside a sampled region: engine.assignment() (the
// lazy name-keyed sync inserts into a std::map by design — it is a
// setup/reporting API, not a move).

#include <gtest/gtest.h>

#include <vector>

#include "assign/cost.h"
#include "assign/cost_engine.h"
#include "assign/footprint_tracker.h"
#include "helpers.h"

namespace mhla {
namespace {

/// First (cc, layer) placement the engine accepts as feasible and
/// layering-valid from the out-of-box state, or {-1, -1}.
std::pair<int, int> find_placement(assign::CostEngine& engine, const assign::AssignContext& ctx) {
  const int background = ctx.hierarchy.background();
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems <= 0) continue;
    for (int layer = 0; layer < background; ++layer) {
      assign::CostEngine::Checkpoint mark = engine.checkpoint();
      engine.select_copy(cc.id, layer);
      bool good = engine.layering_valid() && engine.fits();
      engine.undo_to(mark);
      if (good) return {cc.id, layer};
    }
  }
  return {-1, -1};
}

TEST(AllocRegression, CostEngineSteadyStateMovesAreAllocationFree) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::CostEngine engine(ctx);
  assign::Objective objective = assign::make_objective(engine, 1.0, 1.0);

  auto [cc_id, cc_layer] = find_placement(engine, ctx);
  ASSERT_GE(cc_id, 0) << "fixture program must admit at least one placement";
  ASSERT_GT(engine.num_arrays(), 0u);
  const std::size_t array = 0;
  const int home_layer = 0;  // on-chip; capacity is irrelevant, every move is undone

  // One cycle of every steady-state move kind plus the reads between them.
  auto cycle = [&]() {
    assign::CostEngine::Checkpoint mark = engine.checkpoint();
    engine.select_copy(cc_id, cc_layer);
    (void)engine.scalar(objective);
    (void)engine.fits();
    (void)engine.layering_valid();
    engine.remove_copy(cc_id);
    engine.select_copy(cc_id, cc_layer);
    engine.set_home(array, home_layer);
    (void)engine.scalar(objective);
    engine.undo_to(mark);
    mark = engine.checkpoint();
    (void)engine.migrate_array(array, home_layer);
    (void)engine.scalar(objective);
    engine.undo_to(mark);
  };

  cycle();  // warm-up: fills every lazy high-water mark once
  long before = testing::heap_allocations();
  for (int i = 0; i < 200; ++i) cycle();
  EXPECT_EQ(testing::heap_allocations() - before, 0)
      << "engine moves must stay allocation-free after the first cycle";
}

TEST(AllocRegression, BatchedScoringIsAllocationFree) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::CostEngine engine(ctx);
  assign::Objective objective = assign::make_objective(engine, 1.0, 1.0);

  // Slot buffers sized outside the sampled region, exactly like the greedy
  // round loop reserves its slot vectors up front.
  const int background = ctx.hierarchy.background();
  std::vector<int> cc_ids;
  std::vector<int> layers;
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems <= 0) continue;
    for (int layer = 0; layer < background; ++layer) {
      cc_ids.push_back(cc.id);
      layers.push_back(layer);
    }
  }
  ASSERT_FALSE(cc_ids.empty());
  std::vector<double> scalars(cc_ids.size(), 0.0);
  std::vector<unsigned char> ok(cc_ids.size(), 0);

  engine.score_select_candidates(objective, cc_ids.data(), layers.data(), cc_ids.size(),
                                 scalars.data(), ok.data());  // warm-up
  long before = testing::heap_allocations();
  for (int i = 0; i < 200; ++i) {
    engine.score_select_candidates(objective, cc_ids.data(), layers.data(), cc_ids.size(),
                                   scalars.data(), ok.data());
  }
  EXPECT_EQ(testing::heap_allocations() - before, 0)
      << "batched round scoring must reuse the engine's scratch arrays";
}

TEST(AllocRegression, FootprintTrackerSteadyStateMovesAreAllocationFree) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  assign::FootprintTracker tracker(ctx);

  int cc_id = -1;
  for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
    if (cc.elems > 0) {
      cc_id = cc.id;
      break;
    }
  }
  ASSERT_GE(cc_id, 0);

  auto cycle = [&]() {
    assign::FootprintTracker::Checkpoint mark = tracker.checkpoint();
    tracker.place_copy(cc_id, 0);
    (void)tracker.feasible();
    tracker.extend_copy(cc_id, -1, 1);
    (void)tracker.feasible();
    tracker.remove_copy(cc_id);
    tracker.set_home(0, 0);
    (void)tracker.feasible();
    (void)tracker.feasible_with_copy(cc_id, 0);
    tracker.undo_to(mark);
  };

  cycle();  // warm-up
  long before = testing::heap_allocations();
  for (int i = 0; i < 200; ++i) cycle();
  EXPECT_EQ(testing::heap_allocations() - before, 0)
      << "tracker moves must stay allocation-free after the first cycle";
}

}  // namespace
}  // namespace mhla
