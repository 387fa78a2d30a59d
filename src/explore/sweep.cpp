#include "explore/sweep.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/work_stealing.h"

namespace mhla::xplore {

SweepConfig default_sweep() {
  SweepConfig config;
  for (i64 size = 256; size <= 64 * 1024; size *= 2) config.l1_sizes.push_back(size);
  config.l2_sizes = {0, 64 * 1024, 256 * 1024};
  return config;
}

namespace {

/// First-occurrence de-duplication (the grid order is caller-visible, so a
/// sort would reorder samples).
std::vector<i64> unique_sizes(const std::vector<i64>& sizes) {
  std::vector<i64> unique;
  for (i64 size : sizes) {
    if (std::find(unique.begin(), unique.end(), size) == unique.end()) unique.push_back(size);
  }
  return unique;
}

}  // namespace

std::vector<SweepSample> sweep_layer_sizes(const ir::Program& program, const SweepConfig& config) {
  assign::searcher(config.pipeline.strategy);  // validate the name before any work
  const core::ProgramAnalysis analysis(program);

  // A bounded budget becomes one sweep-wide token, like `run_batch`'s: the
  // deadline covers the whole grid instead of restarting per cell.
  core::PipelineConfig base = config.pipeline;
  const core::ScopedBudget sweep_budget(base.search);

  // Flatten the grid in the canonical (L2 outer, L1 inner) order; each cell
  // writes only its own slot, so the result is identical for any thread
  // count.
  std::vector<i64> l1_sizes = unique_sizes(config.l1_sizes);
  std::vector<i64> l2_sizes = unique_sizes(config.l2_sizes);
  std::vector<std::pair<i64, i64>> grid;  // (l2, l1)
  grid.reserve(l2_sizes.size() * l1_sizes.size());
  for (i64 l2 : l2_sizes) {
    for (i64 l1 : l1_sizes) grid.emplace_back(l2, l1);
  }

  std::vector<SweepSample> samples(grid.size());
  core::parallel_for(grid.size(), base.num_threads, [&](std::size_t i) {
    core::PipelineConfig cell = base;
    std::tie(cell.platform.l2_bytes, cell.platform.l1_bytes) = grid[i];
    core::PipelineResult run =
        core::evaluate_cell(analysis, cell, core::PointRequest::canonical(config.with_te));
    const sim::SimResult& result = core::canonical_point(run.points, config.with_te);

    SweepSample& sample = samples[i];
    sample.point.l1_bytes = cell.platform.l1_bytes;
    sample.point.l2_bytes = cell.platform.l2_bytes;
    sample.point.cycles = result.total_cycles();
    sample.point.energy_nj = result.energy_nj;
    sample.assignment = std::move(run.search.assignment);
    sample.te_applied = config.with_te && cell.dma.present;
  });
  return samples;
}

std::vector<TradeoffPoint> frontier(const std::vector<SweepSample>& samples) {
  std::vector<TradeoffPoint> points;
  points.reserve(samples.size());
  for (const SweepSample& sample : samples) points.push_back(sample.point);
  return pareto_front(std::move(points));
}

}  // namespace mhla::xplore
