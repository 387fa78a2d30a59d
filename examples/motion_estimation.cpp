// Domain example 1: full-search motion estimation (the paper's flagship
// workload).  Shows what MHLA actually decides: which copy candidates are
// selected, where arrays and copies live, and how the two steps change the
// time/energy profile across three platform sizes.
//
// Build & run:   cmake --build build && ./build/examples/motion_estimation

#include <iostream>

#include "apps/registry.h"
#include "core/pipeline.h"
#include "core/report_table.h"

using namespace mhla;

namespace {

void describe_assignment(const core::Workspace& ws, const assign::Assignment& assignment) {
  const mem::Hierarchy& hierarchy = ws.hierarchy();
  std::cout << "array homes:\n";
  for (const ir::ArrayDecl& array : ws.program().arrays()) {
    int layer = assignment.layer_of(array.name, hierarchy.background());
    std::cout << "  " << array.name << " (" << array.bytes() << " B) -> "
              << hierarchy.layer(layer).name << "\n";
  }
  std::cout << "selected copies:\n";
  if (assignment.copies.empty()) std::cout << "  (none)\n";
  for (const assign::PlacedCopy& pc : assignment.copies) {
    const analysis::CopyCandidate& cc = ws.reuse().candidate(pc.cc_id);
    std::cout << "  " << cc.array << " nest " << cc.nest << " level " << cc.level << ": "
              << cc.bytes << " B buffer, " << cc.transfers << " transfers of "
              << cc.bytes_per_transfer() << " B, reuse factor "
              << core::Table::num(cc.reuse_factor(), 1) << " -> "
              << ws.hierarchy().layer(pc.layer).name << "\n";
  }
}

}  // namespace

int main() {
  struct PlatformCase {
    const char* label;
    ir::i64 l1;
    ir::i64 l2;
  };
  const PlatformCase cases[] = {
      {"tiny   (1 KiB L1)", 1 * 1024, 0},
      {"small  (4 KiB L1 + 128 KiB L2)", 4 * 1024, 128 * 1024},
      {"large  (16 KiB L1 + 256 KiB L2)", 16 * 1024, 256 * 1024},
  };

  for (const PlatformCase& c : cases) {
    core::PipelineConfig config;
    config.platform.l1_bytes = c.l1;
    config.platform.l2_bytes = c.l2;
    auto ws = core::make_workspace(apps::build_motion_estimation(), config.platform, config.dma);
    core::PipelineResult run = core::Pipeline(config).run(ws->analysis());

    std::cout << "================ platform: " << c.label << " ================\n";
    describe_assignment(*ws, run.search.assignment);
    std::cout << "\n" << sim::format_four_points("motion_estimation", run.points) << "\n";
  }
  return 0;
}
