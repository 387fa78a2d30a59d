// Domain example 3: the MPEG-2-like encoder, exercising the parts of the
// API the other examples do not:
//  * optimization targets (energy-only vs time-only vs balanced),
//  * platforms without a DMA engine (the paper: "In case that our
//    architecture does not support a memory transfer engine, TE are not
//    applicable"),
//  * per-layer access statistics of the chosen configuration.
//
// Build & run:   cmake --build build && ./build/examples/video_encoder

#include <iostream>

#include "apps/registry.h"
#include "core/pipeline.h"
#include "core/report_table.h"

using namespace mhla;

int main() {
  core::PipelineConfig config;  // default platform: 4 KiB L1 + 128 KiB L2

  // --- 1. Optimization-target comparison: one PipelineConfig per target,
  //        everything else shared.
  std::cout << "=== optimization targets (mpeg2_encoder) ===\n";
  core::Table table({"target", "time %", "energy %", "copies"});
  auto ws = core::make_workspace(apps::build_mpeg2_encoder(), config.platform, config.dma);
  for (const char* label : {"energy", "time", "balanced"}) {
    config.target = assign::parse_target(label);
    core::PipelineResult run = core::Pipeline(config).run(ws->analysis());
    double time_pct = sim::percent_of(run.points.mhla_te.total_cycles(),
                                      run.points.out_of_box.total_cycles());
    double energy_pct =
        sim::percent_of(run.points.mhla_te.energy_nj, run.points.out_of_box.energy_nj);
    table.add_row({label, core::Table::num(time_pct), core::Table::num(energy_pct),
                   std::to_string(run.search.assignment.copies.size())});
  }
  std::cout << table.str() << "\n";

  // --- 2. With vs without a DMA engine: TE applicability.
  std::cout << "=== DMA engine availability ===\n";
  config.target = assign::Target::Balanced;
  core::PipelineConfig config_nodma = config;
  config_nodma.dma.present = false;

  core::PipelineResult with_dma = core::Pipeline(config).run(ws->analysis());
  core::PipelineResult without_dma =
      core::Pipeline(config_nodma).run(apps::build_mpeg2_encoder());
  double base = with_dma.points.out_of_box.total_cycles();
  std::cout << "  MHLA, blocking transfers : "
            << core::Table::num(sim::percent_of(with_dma.points.mhla.total_cycles(), base))
            << " %\n";
  std::cout << "  MHLA + TE (DMA present)  : "
            << core::Table::num(sim::percent_of(with_dma.points.mhla_te.total_cycles(), base))
            << " %\n";
  std::cout << "  MHLA + TE (no DMA)       : "
            << core::Table::num(
                   sim::percent_of(without_dma.points.mhla_te.total_cycles(), base))
            << " %  <- TE not applicable, equals blocking\n\n";

  // --- 3. Per-layer statistics of the final configuration.
  std::cout << "=== MHLA+TE configuration detail ===\n"
            << sim::format_result(with_dma.points.mhla_te);
  return 0;
}
