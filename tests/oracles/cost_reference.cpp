#include "ir/walk.h"
#include "oracles/oracles.h"

namespace mhla::oracles {

using assign::AssignContext;
using assign::Assignment;
using assign::Resolution;
using ir::i64;

CostEstimate estimate_cost(const AssignContext& ctx, const Assignment& assignment) {
  return estimate_cost(ctx, assignment, assign::resolve(ctx, assignment));
}

CostEstimate estimate_cost(const AssignContext& ctx, const Assignment& assignment,
                           const Resolution& res) {
  CostEstimate cost;
  int num_layers = ctx.hierarchy.num_layers();
  cost.layer_reads.assign(static_cast<std::size_t>(num_layers), 0);
  cost.layer_writes.assign(static_cast<std::size_t>(num_layers), 0);

  // Statement computation.
  ir::walk_statements(ctx.program,
                      [&](int /*nest*/, const ir::LoopPath& path, const ir::StmtNode& stmt) {
                        cost.compute_cycles += static_cast<double>(ir::iterations_of(path)) *
                                               static_cast<double>(stmt.op_cycles());
                      });

  // Processor accesses, served by the resolved layer per site.
  for (const analysis::AccessSite& site : ctx.sites) {
    int layer_idx = res.site_layer[static_cast<std::size_t>(site.id)];
    const mem::MemLayer& layer = ctx.hierarchy.layer(layer_idx);
    i64 n = site.dynamic_accesses();
    bool is_write = site.is_write();
    cost.energy_nj += static_cast<double>(n) * layer.access_energy_nj(is_write);
    cost.access_cycles += static_cast<double>(n) * layer.access_latency(is_write);
    if (is_write) {
      cost.layer_writes[static_cast<std::size_t>(layer_idx)] += n;
    } else {
      cost.layer_reads[static_cast<std::size_t>(layer_idx)] += n;
    }
  }

  // Copy traffic: each selected CC is refilled `transfers` times with
  // `elems_per_transfer` elements; each element is one read at the source
  // layer and one write at the destination layer.  Dirty copies flush back.
  for (const assign::TransferEdge& edge : res.transfers) {
    const analysis::CopyCandidate& cc = ctx.reuse.candidate(edge.cc_id);
    const mem::MemLayer& src = ctx.hierarchy.layer(edge.src_layer);
    const mem::MemLayer& dst = ctx.hierarchy.layer(edge.dst_layer);
    i64 elems_moved = cc.transfers * cc.elems_per_transfer;
    double fills = static_cast<double>(elems_moved);

    double per_issue =
        mem::blocking_transfer_cycles(cc.bytes_per_transfer(), src, dst, ctx.dma);

    if (!cc.fill_free) {
      cost.energy_nj += fills * (src.access_energy_nj(false) + dst.access_energy_nj(true));
      cost.layer_reads[static_cast<std::size_t>(edge.src_layer)] += elems_moved;
      cost.layer_writes[static_cast<std::size_t>(edge.dst_layer)] += elems_moved;
      cost.transfer_cycles += static_cast<double>(cc.transfers) * per_issue;
    }

    if (edge.write_back) {
      cost.energy_nj += fills * (dst.access_energy_nj(false) + src.access_energy_nj(true));
      cost.layer_reads[static_cast<std::size_t>(edge.dst_layer)] += elems_moved;
      cost.layer_writes[static_cast<std::size_t>(edge.src_layer)] += elems_moved;
      cost.transfer_cycles += static_cast<double>(cc.transfers) * per_issue;
    }
  }
  // One-time fills/flushes of pinned on-chip inputs/outputs (see
  // PinnedTraffic): one element read at the source + write at the
  // destination, plus a blocking whole-array transfer.
  for (const assign::PinnedTraffic& pinned : assign::pinned_array_traffic(ctx, assignment)) {
    const mem::MemLayer& home = ctx.hierarchy.layer(pinned.home);
    const mem::MemLayer& bg = ctx.hierarchy.layer(ctx.hierarchy.background());
    const mem::MemLayer& src = pinned.fill ? bg : home;
    const mem::MemLayer& dst = pinned.fill ? home : bg;
    double elems = static_cast<double>(pinned.array->elems());
    cost.energy_nj += elems * (src.access_energy_nj(false) + dst.access_energy_nj(true));
    int src_layer = pinned.fill ? ctx.hierarchy.background() : pinned.home;
    int dst_layer = pinned.fill ? pinned.home : ctx.hierarchy.background();
    cost.layer_reads[static_cast<std::size_t>(src_layer)] += pinned.array->elems();
    cost.layer_writes[static_cast<std::size_t>(dst_layer)] += pinned.array->elems();
    cost.transfer_cycles += mem::blocking_transfer_cycles(pinned.array->bytes(), src, dst, ctx.dma);
  }

  return cost;
}

assign::Objective make_objective(const AssignContext& ctx, double energy_weight,
                                 double time_weight) {
  CostEstimate baseline = estimate_cost(ctx, assign::out_of_box(ctx));
  assign::Objective obj;
  obj.energy_weight = energy_weight;
  obj.time_weight = time_weight;
  obj.baseline_energy_nj = baseline.energy_nj > 0 ? baseline.energy_nj : 1.0;
  obj.baseline_cycles = baseline.total_cycles() > 0 ? baseline.total_cycles() : 1.0;
  return obj;
}

}  // namespace mhla::oracles
