#include "analysis/reuse.h"

#include <gtest/gtest.h>

#include <memory>

#include "apps/registry.h"
#include "core/pipeline.h"
#include "ir/builder.h"

namespace mhla::analysis {
namespace {

using ir::ac;
using ir::av;

const CopyCandidate* find_cc(const ReuseAnalysis& reuse, const std::string& array, int nest,
                             int level) {
  for (const CopyCandidate& cc : reuse.candidates()) {
    if (cc.array == array && cc.nest == nest && cc.level == level) return &cc;
  }
  return nullptr;
}

struct Analyzed {
  ir::Program program;
  std::vector<AccessSite> sites;
  ReuseAnalysis reuse;
};

Analyzed analyze(ir::Program p) {
  Analyzed a{std::move(p), {}, {}};
  a.sites = collect_sites(a.program);
  a.reuse = ReuseAnalysis::run(a.program, a.sites);
  return a;
}

ir::Program blocked_program() {
  // data[bi][k] swept `rep` times per block -> strong level-1 reuse.
  ir::ProgramBuilder pb("p");
  pb.array("data", {32, 64}, 4);
  pb.begin_loop("bi", 0, 32);
  pb.begin_loop("rep", 0, 10);
  pb.begin_loop("k", 0, 64);
  pb.stmt("use", 1).read("data", {av("bi"), av("k")});
  pb.end_loop();
  pb.end_loop();
  pb.end_loop();
  return pb.finish();
}

TEST(Reuse, GeneratesChainPerLevel) {
  Analyzed a = analyze(blocked_program());
  // Levels 0..3 for the single access.
  EXPECT_EQ(a.reuse.candidates().size(), 4u);
  for (int level = 0; level <= 3; ++level) {
    EXPECT_NE(find_cc(a.reuse, "data", 0, level), nullptr) << "level " << level;
  }
}

TEST(Reuse, RowCandidateShape) {
  Analyzed a = analyze(blocked_program());
  const CopyCandidate* cc = find_cc(a.reuse, "data", 0, 1);  // bi fixed
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 64);
  EXPECT_EQ(cc->bytes, 256);
  EXPECT_EQ(cc->transfers, 32);             // one per bi iteration
  EXPECT_EQ(cc->elems_per_transfer, 64);    // row moves wholesale
  EXPECT_EQ(cc->reads_served, 32 * 10 * 64);
  EXPECT_EQ(cc->writes_served, 0);
  EXPECT_DOUBLE_EQ(cc->reuse_factor(), 10.0);
}

TEST(Reuse, Level2CandidateReloadsEveryRep) {
  Analyzed a = analyze(blocked_program());
  const CopyCandidate* cc = find_cc(a.reuse, "data", 0, 2);  // bi, rep fixed
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 64);
  EXPECT_EQ(cc->transfers, 320);
  // Stationary w.r.t. rep: conservative full reload, reuse factor 1.
  EXPECT_DOUBLE_EQ(cc->reuse_factor(), 1.0);
}

TEST(Reuse, WholeNestCandidate) {
  Analyzed a = analyze(blocked_program());
  const CopyCandidate* cc = find_cc(a.reuse, "data", 0, 0);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->elems, 32 * 64);
  EXPECT_EQ(cc->transfers, 1);
  EXPECT_DOUBLE_EQ(cc->reuse_factor(), 10.0);
}

TEST(Reuse, MergesSitesOfSameArraySameNest) {
  // Two reads of adjacent rows merge into one (taller) candidate box.
  ir::ProgramBuilder pb("p");
  pb.array("a", {17, 16}, 4);
  pb.begin_loop("i", 0, 16);
  pb.begin_loop("j", 0, 16);
  pb.stmt("s", 1)
      .read("a", {av("i"), av("j")})
      .read("a", {av("i") + ac(1), av("j")});
  pb.end_loop();
  pb.end_loop();
  Analyzed a = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(a.reuse, "a", 0, 1);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->site_ids.size(), 2u);
  EXPECT_EQ(cc->elems, 2 * 16);  // union box: 2 rows
  EXPECT_EQ(cc->reads_served, 2 * 16 * 16);
}

TEST(Reuse, SeparateNestsYieldSeparateCandidates) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  for (int n = 0; n < 2; ++n) {
    pb.begin_loop("i", 0, 16);
    pb.stmt("s", 1).read("a", {av("i")});
    pb.end_loop();
  }
  Analyzed a = analyze(pb.finish());
  EXPECT_NE(find_cc(a.reuse, "a", 0, 0), nullptr);
  EXPECT_NE(find_cc(a.reuse, "a", 1, 0), nullptr);
}

TEST(Reuse, WriteAccessesTracked) {
  ir::ProgramBuilder pb("p");
  pb.array("out", {16}, 4);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).write("out", {av("i")});
  pb.end_loop();
  Analyzed a = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(a.reuse, "out", 0, 0);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->writes_served, 16);
  EXPECT_EQ(cc->reads_served, 0);
  EXPECT_TRUE(cc->has_writes());
}

TEST(Reuse, CandidatesForFiltersByArray) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.array("b", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")}).read("b", {av("i")});
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  for (int id : an.reuse.candidates_for("a")) {
    EXPECT_EQ(an.reuse.candidate(id).array, "a");
  }
  EXPECT_FALSE(an.reuse.candidates_for("a").empty());
  EXPECT_FALSE(an.reuse.candidates_for("b").empty());
  EXPECT_TRUE(an.reuse.candidates_for("zzz").empty());
}

TEST(Reuse, IdsAreDenseAndSorted) {
  Analyzed a = analyze(blocked_program());
  for (std::size_t i = 0; i < a.reuse.candidates().size(); ++i) {
    EXPECT_EQ(a.reuse.candidates()[i].id, static_cast<int>(i));
  }
}

TEST(Reuse, CarryingLoop) {
  Analyzed a = analyze(blocked_program());
  EXPECT_EQ(find_cc(a.reuse, "data", 0, 0)->carrying_loop(), nullptr);
  const CopyCandidate* cc1 = find_cc(a.reuse, "data", 0, 1);
  ASSERT_NE(cc1->carrying_loop(), nullptr);
  EXPECT_EQ(cc1->carrying_loop()->iter(), "bi");
}

TEST(Reuse, ElemBytesPropagated) {
  ir::ProgramBuilder pb("p");
  pb.array("a", {8}, 2);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  Analyzed an = analyze(pb.finish());
  const CopyCandidate* cc = find_cc(an.reuse, "a", 0, 0);
  EXPECT_EQ(cc->elem_bytes, 2);
  EXPECT_EQ(cc->bytes_per_transfer(), cc->elems_per_transfer * 2);
}

/// Everything a copy candidate carries, with the fixed loops named by
/// their iterators instead of their node addresses.
std::string describe(const CopyCandidate& cc) {
  std::string text = std::to_string(cc.id) + " " + cc.array + " n" + std::to_string(cc.nest) +
                     " l" + std::to_string(cc.level) + " b" + std::to_string(cc.bytes) + " t" +
                     std::to_string(cc.transfers) + " e" + std::to_string(cc.elems_per_transfer) +
                     " sites";
  for (int site : cc.site_ids) text += " " + std::to_string(site);
  text += " prefix";
  for (const ir::LoopNode* loop : cc.prefix) text += " " + loop->iter();
  return text;
}

TEST(Reuse, CandidateIdsDoNotFollowHeapLayout) {
  // Two fresh workspaces of the same program, the second built while the
  // heap is fragmented differently, must number their candidates the same
  // and therefore drive the greedy search through the same evaluations.
  core::PipelineConfig config;
  config.platform.l1_bytes = 16 * 1024;
  config.platform.l2_bytes = 256 * 1024;
  const core::Pipeline pipeline(config);
  for (const apps::AppInfo& app : apps::all_apps()) {
    std::unique_ptr<core::Workspace> first =
        core::make_workspace(app.build(), config.platform, config.dma);
    std::vector<std::unique_ptr<char[]>> noise;
    for (std::size_t i = 0; i < 512; ++i) {
      noise.push_back(std::make_unique<char[]>(16 + (i * 37) % 240));
    }
    for (std::size_t i = 0; i < noise.size(); i += 2) noise[i].reset();
    std::unique_ptr<core::Workspace> second =
        core::make_workspace(app.build(), config.platform, config.dma);

    const std::vector<CopyCandidate>& a = first->reuse().candidates();
    const std::vector<CopyCandidate>& b = second->reuse().candidates();
    ASSERT_EQ(a.size(), b.size()) << app.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(describe(a[i]), describe(b[i])) << app.name << " candidate " << i;
    }
    core::PipelineResult run_a = pipeline.run(first->analysis());
    core::PipelineResult run_b = pipeline.run(second->analysis());
    EXPECT_EQ(run_a.search.evaluations, run_b.search.evaluations) << app.name;
    EXPECT_EQ(run_a.search.scalar, run_b.search.scalar) << app.name;
  }
}

}  // namespace
}  // namespace mhla::analysis
