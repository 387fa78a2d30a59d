// The bounding-box footprint model (tests/oracles) and its agreement with
// the copy candidates the reuse analysis generates.

#include <gtest/gtest.h>

#include "analysis/reuse.h"
#include "analysis/sites.h"
#include "apps/registry.h"
#include "gen/random_program.h"
#include "ir/builder.h"
#include "oracles/oracles.h"

namespace mhla::analysis {
namespace {

using ir::ac;
using ir::av;
using oracles::Box;
using oracles::delta_elems;
using oracles::footprint;

/// Helper: build a program with one access, return (program, site).
struct OneAccess {
  ir::Program program;
  std::vector<AccessSite> sites;

  const AccessSite& site() const { return sites.at(0); }
  const ir::ArrayDecl& array() const { return *site().array; }
};

OneAccess make_2d_blocked() {
  ir::ProgramBuilder pb("p");
  pb.array("a", {64, 64}, 4);
  pb.begin_loop("bi", 0, 4);
  pb.begin_loop("i", 0, 16);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 1).read("a", {av("bi", 16) + av("i"), av("j")});
  pb.end_loop();
  pb.end_loop();
  pb.end_loop();
  OneAccess out{pb.finish(), {}};
  out.sites = collect_sites(out.program);
  return out;
}

TEST(Footprint, FullySpecifiedAtInnermostLevel) {
  OneAccess t = make_2d_blocked();
  // All three loops fixed: single element.
  Box box = footprint(t.array(), *t.site().access, t.site().path, 3);
  EXPECT_EQ(box.elems(), 1);
}

TEST(Footprint, InnerLoopVaryingOnly) {
  OneAccess t = make_2d_blocked();
  // bi, i fixed; j varies: 1 x 16.
  Box box = footprint(t.array(), *t.site().access, t.site().path, 2);
  EXPECT_EQ(box.widths, (std::vector<ir::i64>{1, 16}));
}

TEST(Footprint, BlockLevel) {
  OneAccess t = make_2d_blocked();
  // bi fixed; i, j vary: 16 x 16 block.
  Box box = footprint(t.array(), *t.site().access, t.site().path, 1);
  EXPECT_EQ(box.widths, (std::vector<ir::i64>{16, 16}));
  EXPECT_EQ(box.elems(), 256);
}

TEST(Footprint, WholeNest) {
  OneAccess t = make_2d_blocked();
  // Everything varies: bi contributes 16*(4-1), i contributes 15 -> 64 rows.
  Box box = footprint(t.array(), *t.site().access, t.site().path, 0);
  EXPECT_EQ(box.widths, (std::vector<ir::i64>{64, 16}));
}

TEST(Footprint, ClampsToArrayExtent) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  ir::Program p = pb.finish();
  auto sites = collect_sites(p);
  Box box = footprint(*sites[0].array, *sites[0].access, sites[0].path, 0);
  EXPECT_EQ(box.widths[0], 8);  // never exceeds the extent
}

TEST(Footprint, OverlappingWindowAccess) {
  // Sliding 3-wide window: a[i + k], i in 0..10, k in 0..3.
  ir::ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  pb.begin_loop("i", 0, 10);
  pb.begin_loop("k", 0, 3);
  pb.stmt("s", 1).read("a", {av("i") + av("k")});
  pb.end_loop();
  pb.end_loop();
  ir::Program p = pb.finish();
  auto sites = collect_sites(p);
  // i fixed: window of 3.
  EXPECT_EQ(footprint(*sites[0].array, *sites[0].access, sites[0].path, 1).elems(), 3);
  // both vary: 9 + 2 + 1 = 12.
  EXPECT_EQ(footprint(*sites[0].array, *sites[0].access, sites[0].path, 0).elems(), 12);
}

TEST(Footprint, StridedAccessWidensBox) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {64}, 4);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {av("i", 4)});  // touches 0,4,...,60
  pb.end_loop();
  ir::Program p = pb.finish();
  auto sites = collect_sites(p);
  // Bounding box spans 61 elements (holes included, rectangular model).
  EXPECT_EQ(footprint(*sites[0].array, *sites[0].access, sites[0].path, 0).elems(), 61);
}

TEST(Footprint, BoxMerge) {
  Box a{{4, 8}};
  Box b{{6, 2}};
  Box m = Box::merge(a, b);
  EXPECT_EQ(m.widths, (std::vector<ir::i64>{6, 8}));
}

TEST(Footprint, BoxMergeDifferentRanks) {
  Box a{{4}};
  Box b{{2, 3}};
  Box m = Box::merge(a, b);
  EXPECT_EQ(m.widths, (std::vector<ir::i64>{4, 3}));
}

TEST(DeltaElems, FullReloadAtLevelZero) {
  OneAccess t = make_2d_blocked();
  i64 delta = delta_elems(t.array(), *t.site().access, t.site().path, 0);
  EXPECT_EQ(delta, 64 * 16);
}

TEST(DeltaElems, DisjointBlocksReloadFully) {
  OneAccess t = make_2d_blocked();
  // Block at level 1 shifts by 16 rows per bi step; box is 16 rows -> no
  // overlap, full reload.
  i64 delta = delta_elems(t.array(), *t.site().access, t.site().path, 1);
  EXPECT_EQ(delta, 256);
}

TEST(DeltaElems, SlidingWindowTransfersOnlyNewColumns) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {4, 64}, 4);
  pb.begin_loop("i", 0, 32);
  pb.begin_loop("r", 0, 4);
  pb.begin_loop("k", 0, 8);
  pb.stmt("s", 1).read("a", {av("r"), av("i") + av("k")});
  pb.end_loop();
  pb.end_loop();
  pb.end_loop();
  ir::Program p = pb.finish();
  auto sites = collect_sites(p);
  // Box at level 1 (i fixed): 4 x 8 = 32.  Shift per i step: 1 column.
  // Delta = 32 - 4*7 = 4 (one new column of 4 rows).
  EXPECT_EQ(delta_elems(*sites[0].array, *sites[0].access, sites[0].path, 1), 4);
}

TEST(DeltaElems, StationaryBoxReloadsWholesale) {
  // The inner table does not move with the outer loop: conservative full
  // reload (the buffer is recycled between iterations).
  ir::ProgramBuilder pb("p");
  pb.array("tab", {16}, 4);
  pb.begin_loop("i", 0, 8);
  pb.begin_loop("k", 0, 16);
  pb.stmt("s", 1).read("tab", {av("k")});
  pb.end_loop();
  pb.end_loop();
  ir::Program p = pb.finish();
  auto sites = collect_sites(p);
  EXPECT_EQ(delta_elems(*sites[0].array, *sites[0].access, sites[0].path, 1), 16);
}

/// `ReuseAnalysis::run` computes candidate boxes and transfer deltas with
/// its own interval and shift arithmetic; for a single-site candidate they
/// must equal the footprint model's box and delta at the candidate's level.
void expect_candidates_match_model(const ir::Program& program, int& checked) {
  std::vector<AccessSite> sites = collect_sites(program);
  ReuseAnalysis reuse = ReuseAnalysis::run(program, sites);
  for (const CopyCandidate& cc : reuse.candidates()) {
    if (cc.site_ids.size() != 1) continue;
    const AccessSite& site = sites.at(static_cast<std::size_t>(cc.site_ids.front()));
    const std::size_t fixed = static_cast<std::size_t>(cc.level);
    EXPECT_EQ(cc.elems, footprint(*site.array, *site.access, site.path, fixed).elems())
        << program.name() << " candidate " << cc.id;
    EXPECT_EQ(cc.elems_per_transfer, delta_elems(*site.array, *site.access, site.path, fixed))
        << program.name() << " candidate " << cc.id;
    ++checked;
  }
}

TEST(Footprint, ModelMatchesSingleSiteReuseCandidates) {
  int checked = 0;
  for (const apps::AppInfo& info : apps::all_apps()) {
    expect_candidates_match_model(info.build(), checked);
  }
  for (std::uint32_t seed = 1; seed <= 200; ++seed) {
    expect_candidates_match_model(gen::random_program(seed), checked);
  }
  EXPECT_GT(checked, 1000) << "too few single-site candidates; corpus gone vacuous";
}

}  // namespace
}  // namespace mhla::analysis
