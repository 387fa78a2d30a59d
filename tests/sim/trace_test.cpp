// The enumerative oracle itself, plus the properties it certifies about the
// analytic models: exact access counts match the site analysis, and the
// bounding-box footprints are sound (superset of the exact touch set).

#include <gtest/gtest.h>

#include "analysis/reuse.h"
#include "helpers.h"
#include "oracles/oracles.h"

namespace mhla::sim {
namespace {

using ir::ac;
using ir::av;

TEST(Trace, CountsTinyProgramExactly) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {8, 8}, 4);
  pb.begin_loop("i", 0, 4);
  pb.begin_loop("j", 0, 4);
  pb.stmt("s", 1).read("a", {av("i"), av("j")}, 2);
  pb.end_loop();
  pb.end_loop();
  oracles::ExactCounts counts = oracles::enumerate_program(pb.finish());
  EXPECT_EQ(counts.statement_instances, 16);
  EXPECT_EQ(counts.dynamic_accesses, 32);
  EXPECT_EQ(counts.accesses_per_array["a"], 32);
  EXPECT_EQ(counts.distinct_elements["a"], 16);
  EXPECT_TRUE(counts.in_bounds);
  EXPECT_FALSE(counts.truncated);
}

TEST(Trace, DetectsOutOfBounds) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {4}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  oracles::ExactCounts counts = oracles::enumerate_program(pb.finish());
  EXPECT_FALSE(counts.in_bounds);
}

TEST(Trace, OverlappingWindowsDeduplicate) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {12}, 4);
  pb.begin_loop("i", 0, 10);
  pb.stmt("s", 1).read("a", {av("i")}).read("a", {av("i") + ac(2)});
  pb.end_loop();
  oracles::ExactCounts counts = oracles::enumerate_program(pb.finish());
  EXPECT_EQ(counts.accesses_per_array["a"], 20);
  EXPECT_EQ(counts.distinct_elements["a"], 12);  // 0..11, overlaps deduped
}

TEST(Trace, TruncationGuard) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  pb.begin_loop("i", 0, 1000);
  pb.begin_loop("j", 0, 1000);
  pb.stmt("s", 1).read("a", {ac(0)});
  pb.end_loop();
  pb.end_loop();
  oracles::ExactCounts counts = oracles::enumerate_program(pb.finish(), 1000);
  EXPECT_TRUE(counts.truncated);
  EXPECT_LE(counts.statement_instances, 1001);
}

TEST(Trace, StridedLoopsEvaluateExactly) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {32}, 4);
  pb.begin_loop("i", 4, 20, 4);  // 4, 8, 12, 16
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  oracles::ExactCounts counts = oracles::enumerate_program(pb.finish());
  EXPECT_EQ(counts.statement_instances, 4);
  EXPECT_EQ(counts.distinct_elements["a"], 4);
}

// ---- Properties the oracle certifies about the analytic models. ----

/// Small programs with diverse access shapes.
std::vector<ir::Program> property_corpus() {
  std::vector<ir::Program> corpus;
  {
    ir::ProgramBuilder pb("blocked");
    pb.array("d", {16, 32}, 4);
    pb.begin_loop("b", 0, 8);
    pb.begin_loop("r", 0, 3);
    pb.begin_loop("k", 0, 32);
    pb.stmt("s", 1).read("d", {av("b", 2), av("k")});
    pb.end_loop();
    pb.end_loop();
    pb.end_loop();
    corpus.push_back(pb.finish());
  }
  {
    ir::ProgramBuilder pb("window");
    pb.array("w", {40}, 2);
    pb.begin_loop("i", 0, 32);
    pb.begin_loop("k", 0, 5);
    pb.stmt("s", 1).read("w", {av("i") + av("k")});
    pb.end_loop();
    pb.end_loop();
    corpus.push_back(pb.finish());
  }
  {
    ir::ProgramBuilder pb("stencil");
    pb.array("img", {18, 18}, 1);
    pb.array("out", {18, 18}, 1);
    pb.begin_loop("y", 1, 17);
    pb.begin_loop("x", 1, 17);
    auto stmt = pb.stmt("s", 2);
    for (ir::i64 dy = -1; dy <= 1; ++dy) {
      for (ir::i64 dx = -1; dx <= 1; ++dx) {
        stmt.read("img", {av("y") + ac(dy), av("x") + ac(dx)});
      }
    }
    stmt.write("out", {av("y"), av("x")});
    pb.end_loop();
    pb.end_loop();
    corpus.push_back(pb.finish());
  }
  {
    ir::ProgramBuilder pb("strided");
    pb.array("v", {128}, 4);
    pb.begin_loop("i", 0, 16);
    pb.begin_loop("j", 0, 4);
    pb.stmt("s", 1).read("v", {av("i", 8) + av("j", 2)});
    pb.end_loop();
    pb.end_loop();
    corpus.push_back(pb.finish());
  }
  return corpus;
}

TEST(TraceProperty, AnalyticAccessCountsAreExact) {
  for (const ir::Program& program : property_corpus()) {
    oracles::ExactCounts exact = oracles::enumerate_program(program);
    auto sites = analysis::collect_sites(program);
    std::map<std::string, ir::i64> analytic;
    for (const analysis::AccessSite& site : sites) {
      analytic[site.access->array] += site.dynamic_accesses();
    }
    EXPECT_EQ(analytic, exact.accesses_per_array) << program.name();
  }
}

TEST(TraceProperty, FootprintBoxesAreSound) {
  // For every copy candidate of every corpus program, the analytic box must
  // cover the exact per-instance touch set (maximized over fixed iterators).
  for (const ir::Program& program : property_corpus()) {
    auto sites = analysis::collect_sites(program);
    analysis::ReuseAnalysis reuse = analysis::ReuseAnalysis::run(program, sites);
    for (const analysis::CopyCandidate& cc : reuse.candidates()) {
      // Exact footprint of the union of member sites: sum per-site exact
      // sets is awkward; verify per member site (box covers each member).
      for (int site_id : cc.site_ids) {
        const analysis::AccessSite& site = sites[static_cast<std::size_t>(site_id)];
        ir::i64 exact =
            oracles::exact_footprint_elems(program, site, static_cast<std::size_t>(cc.level));
        EXPECT_GE(cc.elems, exact)
            << program.name() << " cc " << cc.id << " array " << cc.array << " level "
            << cc.level << " site " << site_id;
      }
    }
  }
}

TEST(TraceProperty, DenseBoxesAreTight) {
  // For dense (stride-1, single-access) patterns the bounding box is exact,
  // not just sound.
  ir::ProgramBuilder pb("dense");
  pb.array("d", {16, 32}, 4);
  pb.begin_loop("b", 0, 16);
  pb.begin_loop("k", 0, 32);
  pb.stmt("s", 1).read("d", {av("b"), av("k")});
  pb.end_loop();
  pb.end_loop();
  ir::Program program = pb.finish();
  auto sites = analysis::collect_sites(program);
  for (std::size_t fixed = 0; fixed <= 2; ++fixed) {
    oracles::Box box =
        oracles::footprint(*sites[0].array, *sites[0].access, sites[0].path, fixed);
    ir::i64 exact = oracles::exact_footprint_elems(program, sites[0], fixed);
    EXPECT_EQ(box.elems(), exact) << "fixed=" << fixed;
  }
}

TEST(TraceProperty, ProgramFootprintMatchesWholeArrayTouch) {
  // Level-0 candidates of single-nest programs must cover exactly what the
  // program touches when the pattern is dense.
  ir::Program program = std::move(property_corpus()[0]);  // "blocked"
  oracles::ExactCounts exact = oracles::enumerate_program(program);
  auto sites = analysis::collect_sites(program);
  analysis::ReuseAnalysis reuse = analysis::ReuseAnalysis::run(program, sites);
  for (const analysis::CopyCandidate& cc : reuse.candidates()) {
    if (cc.level == 0) {
      EXPECT_GE(cc.elems, exact.distinct_elements[cc.array]);
    }
  }
}

}  // namespace
}  // namespace mhla::sim
