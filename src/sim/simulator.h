#pragma once

#include <string>
#include <vector>

#include "assign/inplace.h"
#include "te/schedule.h"

namespace mhla::sim {

/// Per-layer simulation statistics: the layer's dynamic reads and writes
/// (processor traffic + copy traffic) and the energy they cost.
struct LayerStats {
  std::string name;
  ir::i64 reads = 0;
  ir::i64 writes = 0;
  double energy_nj = 0.0;
};

/// Simulation options: how transfers are charged, and the TE configuration
/// when mode == TimeExtended.
struct SimOptions {
  te::TransferMode mode = te::TransferMode::Blocking;
  te::TeOptions te;

  /// Model DMA-engine oversubscription: the cycles TE hides inside one nest
  /// cannot exceed that nest's CPU time multiplied by the engine's channel
  /// count — transfers beyond that queue on the engine and their time
  /// becomes exposed again.  Disabled by default to match the paper's
  /// idealized engine; no production path turns it on, only the contention
  /// tests do.
  bool model_dma_contention = false;
};

/// Result of one deterministic execution of a configured program.
struct SimResult {
  double compute_cycles = 0.0;  ///< statement op cycles
  double access_cycles = 0.0;   ///< processor load/store latency
  double stall_cycles = 0.0;    ///< residual block-transfer waits
  double energy_nj = 0.0;       ///< every hierarchy access, mode independent
  double dma_busy_cycles = 0.0;
  int num_block_transfers = 0;  ///< distinct BT streams
  std::vector<LayerStats> layers;
  std::vector<double> nest_cycles;  ///< CPU cycles per top-level nest (no stalls)
  assign::FootprintReport footprints;
  bool feasible = true;
  bool budget_exhausted = false;  ///< time extension stopped at an expired run budget

  double total_cycles() const { return compute_cycles + access_cycles + stall_cycles; }
};

/// Deterministically "execute" the program under an assignment:
/// walk the loop nests, serve every access from its resolved layer, run the
/// block transfers under the selected mode, and account cycles, per-layer
/// reads and writes, and energy.  Energy counts memory-hierarchy accesses
/// only (the paper's model), so it and `layers` are the same in every mode.
///
/// This is the production from-scratch model, independent of the searches'
/// incremental `assign::CostEngine`.  In Blocking mode its cycles, energy
/// and per-layer counts must match the test suite's reference
/// `oracles::estimate_cost` (energy to relative 1e-12: it is summed per
/// layer, the reference per term), which the suite checks.
SimResult simulate(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                   const SimOptions& options = {});

/// The four bars of the paper's Figure 2 for one configuration (plus the
/// matching energy numbers for Figure 3), as `core::evaluate_cell` fills
/// them.
struct FourPoint {
  SimResult out_of_box;  ///< everything off-chip, no copies
  SimResult mhla;        ///< step 1, blocking transfers
  SimResult mhla_te;     ///< step 1 + time extensions
  SimResult ideal;       ///< step 1 with zero-wait transfers
};

}  // namespace mhla::sim
