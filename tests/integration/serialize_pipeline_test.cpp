// End-to-end equivalence through the text format: a program that round-trips
// through serialize/parse must produce bit-identical analysis and
// optimization results — the property that makes `.mhla` files a reliable
// tool boundary.

#include <gtest/gtest.h>

#include "helpers.h"
#include "ir/serialize.h"
#include "ir/transform.h"

namespace mhla {
namespace {

class SerializedPipeline : public ::testing::TestWithParam<apps::AppInfo> {};

TEST_P(SerializedPipeline, IdenticalOptimizationResults) {
  ir::Program original = GetParam().build();
  ir::Program reparsed = ir::parse_program(ir::serialize(original));

  auto ws1 = core::make_workspace(std::move(original), {}, {});
  auto ws2 = core::make_workspace(std::move(reparsed), {}, {});

  EXPECT_EQ(ws1->sites().size(), ws2->sites().size());
  EXPECT_EQ(ws1->reuse().candidates().size(), ws2->reuse().candidates().size());

  testing::ReferenceRun run1 = testing::reference_run(*ws1);
  testing::ReferenceRun run2 = testing::reference_run(*ws2);
  EXPECT_DOUBLE_EQ(run1.points.mhla.total_cycles(), run2.points.mhla.total_cycles());
  EXPECT_DOUBLE_EQ(run1.points.mhla.energy_nj, run2.points.mhla.energy_nj);
  EXPECT_DOUBLE_EQ(run1.points.mhla_te.total_cycles(), run2.points.mhla_te.total_cycles());
  EXPECT_EQ(run1.step1.assignment.copies.size(), run2.step1.assignment.copies.size());
}

INSTANTIATE_TEST_SUITE_P(AllNine, SerializedPipeline, ::testing::ValuesIn(apps::all_apps()),
                         [](const ::testing::TestParamInfo<apps::AppInfo>& info) {
                           return info.param.name;
                         });

TEST(TransformedPipeline, TilingPreservesBaselineSemantics) {
  // Tiling changes the candidate set but not the program's work: baseline
  // (out-of-box) cost must be identical before and after tiling.
  ir::ProgramBuilder pb("t");
  using ir::av;
  pb.array("tab", {4096}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("rep", 0, 64);
  pb.begin_loop("i", 0, 4096);
  pb.stmt("use", 2).read("tab", {av("i")});
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("rep")});
  pb.end_loop();
  ir::Program flat = pb.finish();
  ir::Program tiled = ir::tile_loop(flat, "i", 128);

  auto ws_flat = core::make_workspace(std::move(flat), {}, {});
  auto ws_tiled = core::make_workspace(std::move(tiled), {}, {});
  auto base_flat = sim::simulate(ws_flat->context(), assign::out_of_box(ws_flat->context()));
  auto base_tiled = sim::simulate(ws_tiled->context(), assign::out_of_box(ws_tiled->context()));
  EXPECT_DOUBLE_EQ(base_flat.total_cycles(), base_tiled.total_cycles());
  EXPECT_DOUBLE_EQ(base_flat.energy_nj, base_tiled.energy_nj);
}

TEST(TransformedPipeline, TilingNeverHurtsOptimizedCost) {
  // MHLA on the tiled program can at worst ignore the new candidates.
  ir::ProgramBuilder pb("t2");
  using ir::av;
  pb.array("tab", {8192}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("rep", 0, 64);
  pb.begin_loop("i", 0, 8192);
  pb.stmt("use", 2).read("tab", {av("i")});
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("rep")});
  pb.end_loop();
  ir::Program flat = pb.finish();
  ir::Program tiled = ir::tile_loop(flat, "i", 256);

  mem::PlatformConfig platform;
  platform.l1_bytes = 2 * 1024;
  platform.l2_bytes = 0;
  auto ws_flat = core::make_workspace(std::move(flat), platform, {});
  auto ws_tiled = core::make_workspace(std::move(tiled), platform, {});
  testing::ReferenceRun flat_run = testing::reference_run(*ws_flat);
  testing::ReferenceRun tiled_run = testing::reference_run(*ws_tiled);
  EXPECT_LE(tiled_run.points.mhla_te.total_cycles(),
            flat_run.points.mhla_te.total_cycles() + 1e-9);
}

}  // namespace
}  // namespace mhla
