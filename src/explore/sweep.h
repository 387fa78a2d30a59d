#pragma once

#include "core/pipeline.h"
#include "explore/pareto.h"
#include "sim/simulator.h"

namespace mhla::xplore {

/// One evaluated configuration of a sweep.
struct SweepSample {
  TradeoffPoint point;
  assign::Assignment assignment;
  bool te_applied = false;
};

/// Parameters of a layer-size sweep: the candidate L1 and L2 capacities
/// (bytes; 0 disables a layer for that sample) over one shared pipeline
/// configuration.  The pipeline carries everything a single run carries —
/// platform models, DMA engine, strategy, target, TE options, thread count
/// — so a sweep and a single run can never silently diverge; only
/// `pipeline.platform.l1_bytes/l2_bytes` are overridden per grid cell.
struct SweepConfig {
  std::vector<i64> l1_sizes;
  std::vector<i64> l2_sizes;
  core::PipelineConfig pipeline;

  /// Apply time extensions to each sample (requires `pipeline.dma.present`).
  bool with_te = true;
};

/// Default sweep grid used by the trade-off benchmark:
/// L1 in {256 B .. 64 KiB} (powers of two), L2 in {0, 64 KiB, 256 KiB}.
SweepConfig default_sweep();

/// Run the configured strategy (and optionally TE) for every (L1, L2)
/// combination of the grid and return every sample.  Repeated sizes are
/// de-duplicated (first occurrence kept), so the grid holds each cell once.
/// The program is analysed once; each grid cell is one `core::evaluate_cell`
/// on a worker pool (`config.pipeline.num_threads`), in a deterministic
/// order independent of the thread count.  A bounded run budget is one
/// sweep-wide token: every cell still runs, degraded once it has expired.
std::vector<SweepSample> sweep_layer_sizes(const ir::Program& program, const SweepConfig& config);

/// Pareto frontier of a sample set.
std::vector<TradeoffPoint> frontier(const std::vector<SweepSample>& samples);

}  // namespace mhla::xplore
