// Equivalence of `analysis::ReuseAnalysis::run` (dense per-site tables,
// partitions by sort) with the map-keyed reference
// (`oracles::reuse_reference`): the same candidates, in the same order,
// field for field.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/reuse.h"
#include "apps/registry.h"
#include "gen/random_program.h"
#include "ir/serialize.h"
#include "oracles/oracles.h"

namespace mhla::analysis {
namespace {

void expect_same_candidates(const ir::Program& program) {
  const std::vector<AccessSite> sites = collect_sites(program);
  const ReuseAnalysis analysis = ReuseAnalysis::run(program, sites);
  const std::vector<CopyCandidate>& fresh = analysis.candidates();
  const std::vector<CopyCandidate> reference = oracles::reuse_reference(program, sites);
  ASSERT_EQ(fresh.size(), reference.size()) << ir::serialize(program);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const CopyCandidate& a = fresh[i];
    const CopyCandidate& b = reference[i];
    SCOPED_TRACE("candidate " + std::to_string(i) + " of " + program.name());
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.array, b.array);
    EXPECT_EQ(a.nest, b.nest);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.elems, b.elems);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_EQ(a.elems_per_transfer, b.elems_per_transfer);
    EXPECT_EQ(a.reads_served, b.reads_served);
    EXPECT_EQ(a.writes_served, b.writes_served);
    EXPECT_EQ(a.elem_bytes, b.elem_bytes);
    EXPECT_EQ(a.site_ids, b.site_ids);
    EXPECT_EQ(a.prefix, b.prefix);
    EXPECT_EQ(a.fill_free, b.fill_free);
  }
}

TEST(ReuseEquivalence, AppsMatchReference) {
  for (const apps::AppInfo& app : apps::all_apps()) expect_same_candidates(app.build());
}

TEST(ReuseEquivalence, RandomProgramsMatchReference) {
  gen::RandomProgramConfig deep;
  deep.max_depth = 5;
  deep.max_stmts_per_nest = 3;
  deep.max_accesses_per_stmt = 4;
  gen::RandomProgramConfig wide;
  wide.max_nests = 4;
  wide.max_arrays = 6;
  wide.max_accesses_per_stmt = 5;
  int programs = 0;
  for (const gen::RandomProgramConfig& config : {gen::RandomProgramConfig{}, deep, wide}) {
    for (std::uint32_t seed = 0; seed < 700; ++seed) {
      expect_same_candidates(gen::random_program(seed, config));
      ++programs;
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GE(programs, 2000);
}

TEST(ReuseEquivalence, HandWrittenEdgeCasesMatchReference) {
  // Arrays declared out of name order, a shadowed iterator name (the
  // builder refuses one, the text format does not), negative
  // coefficients, strides, a fixed-coefficient mismatch inside one
  // partition, write-before-read (fill-free) and read-before-write.
  expect_same_candidates(ir::parse_program(
      "program edges\n"
      "array zeta 64 64 : elem 2 input\n"
      "array alpha 256 : elem 4\n"
      "array mid 32 32 : elem 1 output\n"
      "loop i 0 8 1 {\n"
      "  loop j 0 16 2 {\n"
      "    stmt a ops 1 {\n"
      "      read zeta [4*i+j] [j]\n"
      "      read zeta [2*i+1] [2*j]\n"
      "      write alpha [16*i+j]\n"
      "    }\n"
      "    loop i 0 4 1 {\n"
      "      stmt b ops 2 {\n"
      "        read alpha [16*i+j] x2\n"
      "        read mid [i] [j]\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "}\n"
      "loop k 0 32 1 {\n"
      "  stmt c ops 1 {\n"
      "    write mid [k] [-k+31]\n"
      "    read mid [k] [-k+31]\n"
      "  }\n"
      "  stmt d ops 1 {\n"
      "    read mid [0] [k]\n"
      "    write mid [0] [k]\n"
      "  }\n"
      "}\n"
      "stmt top ops 1 {\n"
      "  read alpha [3]\n"
      "}\n"));
}

}  // namespace
}  // namespace mhla::analysis
