#include "sim/simulator.h"

#include <algorithm>

#include "ir/walk.h"

namespace mhla::sim {

SimResult simulate(const assign::AssignContext& ctx, const assign::Assignment& assignment,
                   const SimOptions& options) {
  SimResult result;
  assign::Resolution res = assign::resolve(ctx, assignment);
  result.nest_cycles.assign(ctx.program.top().size(), 0.0);

  // Dynamic reads and writes per layer: processor traffic plus copy traffic.
  std::vector<ir::i64> reads(static_cast<std::size_t>(ctx.hierarchy.num_layers()), 0);
  std::vector<ir::i64> writes(reads.size(), 0);
  auto count = [&](int layer, bool is_write, ir::i64 n) {
    (is_write ? writes : reads)[static_cast<std::size_t>(layer)] += n;
  };

  // --- Processor side: walk the nests, serve accesses from resolved layers.
  ir::walk_statements(ctx.program,
                      [&](int nest, const ir::LoopPath& path, const ir::StmtNode& stmt) {
                        double iters = static_cast<double>(ir::iterations_of(path));
                        double op = iters * static_cast<double>(stmt.op_cycles());
                        result.compute_cycles += op;
                        result.nest_cycles[static_cast<std::size_t>(nest)] += op;
                      });
  for (const analysis::AccessSite& site : ctx.sites) {
    int layer_idx = res.site_layer[static_cast<std::size_t>(site.id)];
    const mem::MemLayer& layer = ctx.hierarchy.layer(layer_idx);
    double cycles = static_cast<double>(site.dynamic_accesses()) *
                    layer.access_latency(site.is_write());
    result.access_cycles += cycles;
    result.nest_cycles[static_cast<std::size_t>(site.nest)] += cycles;
    count(layer_idx, site.is_write(), site.dynamic_accesses());
  }

  // Copy traffic: every transferred element is one read at the source layer
  // and one write at the destination; dirty copies flush back.
  for (const assign::TransferEdge& edge : res.transfers) {
    const analysis::CopyCandidate& cc = ctx.reuse.candidate(edge.cc_id);
    ir::i64 moved = cc.transfers * cc.elems_per_transfer;
    if (!cc.fill_free) {
      count(edge.src_layer, false, moved);
      count(edge.dst_layer, true, moved);
    }
    if (edge.write_back) {
      count(edge.dst_layer, false, moved);
      count(edge.src_layer, true, moved);
    }
  }

  // --- Transfer side.
  std::vector<te::BlockTransfer> bts = te::collect_block_transfers(ctx, assignment);
  result.num_block_transfers = static_cast<int>(bts.size());
  result.dma_busy_cycles = te::total_dma_busy_cycles(bts);

  std::vector<assign::CopyExtension> extensions;
  if (options.mode == te::TransferMode::TimeExtended) {
    te::TeResult te_result = te::time_extend(ctx, assignment, bts, options.te);
    result.budget_exhausted = te_result.budget_exhausted;
    result.stall_cycles =
        te::total_stall_cycles(bts, te::TransferMode::TimeExtended, &te_result);

    if (options.model_dma_contention) {
      // The engine can only overlap `channels` transfers with compute at a
      // time; per nest, the total hideable budget is nest CPU time times
      // the channel count.  Hidden cycles beyond the budget re-surface as
      // stalls (transfers queue behind each other on the engine).
      std::vector<double> hidden_per_nest(result.nest_cycles.size(), 0.0);
      for (const te::BlockTransfer& bt : bts) {
        const te::BtExtension& ext = te_result.for_bt(bt.id);
        hidden_per_nest[static_cast<std::size_t>(bt.nest)] +=
            ext.hidden_cycles * static_cast<double>(bt.issues);
      }
      for (std::size_t nest = 0; nest < hidden_per_nest.size(); ++nest) {
        double budget = result.nest_cycles[nest] * std::max(ctx.dma.channels, 1);
        double excess = hidden_per_nest[nest] - budget;
        if (excess > 0.0) result.stall_cycles += excess;
      }
    }
    extensions = te_result.footprint_extensions;
  } else {
    result.stall_cycles = te::total_stall_cycles(bts, options.mode, nullptr);
  }

  // One-time fills/flushes of pinned on-chip inputs/outputs block the
  // processor (program startup / shutdown); in the ideal zero-wait bar
  // they are hidden like every other transfer.  Each element is one read
  // at the source and one write at the destination.
  const int background = ctx.hierarchy.background();
  for (const assign::PinnedTraffic& pinned : assign::pinned_array_traffic(ctx, assignment)) {
    int src = pinned.fill ? background : pinned.home;
    int dst = pinned.fill ? pinned.home : background;
    double cycles = mem::blocking_transfer_cycles(pinned.array->bytes(), ctx.hierarchy.layer(src),
                                                  ctx.hierarchy.layer(dst), ctx.dma);
    result.dma_busy_cycles += cycles;
    if (options.mode != te::TransferMode::Ideal) result.stall_cycles += cycles;
    count(src, false, pinned.array->elems());
    count(dst, true, pinned.array->elems());
  }

  // --- Energy (mode independent, exactly like the paper's model), summed
  // layer by layer, reads before writes.
  for (int l = 0; l < ctx.hierarchy.num_layers(); ++l) {
    const mem::MemLayer& layer = ctx.hierarchy.layer(l);
    LayerStats stats;
    stats.name = layer.name;
    stats.reads = reads[static_cast<std::size_t>(l)];
    stats.writes = writes[static_cast<std::size_t>(l)];
    double read_nj = static_cast<double>(stats.reads) * layer.read_energy_nj;
    double write_nj = static_cast<double>(stats.writes) * layer.write_energy_nj;
    result.energy_nj += read_nj;
    result.energy_nj += write_nj;
    stats.energy_nj = read_nj + write_nj;
    result.layers.push_back(std::move(stats));
  }

  // --- Capacity audit including TE lifetime growth.
  result.footprints = assign::compute_footprints(ctx, assignment, extensions);
  result.feasible = result.footprints.feasible;
  return result;
}

}  // namespace mhla::sim
