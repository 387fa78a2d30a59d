// From-scratch greedy steering search: the oracle `assign::greedy_assign`
// is equivalence-tested against (see oracles.h).

#include <algorithm>
#include <optional>

#include "oracles/oracles.h"

namespace mhla::oracles {

using namespace assign;

namespace {

/// A candidate move with its evaluation: the oracle keeps a full copy of
/// the assignment each candidate would produce.
struct ScoredMove {
  GreedyMove move;
  Assignment next;
};

/// Bytes the move claims on its target layer (>= 0; 0 for pure migrations
/// that free space elsewhere).  Used for the gain-per-byte steering metric.
i64 claimed_bytes(const AssignContext& ctx, const GreedyMove& move) {
  switch (move.kind) {
    case GreedyMove::Kind::SelectCopy:
      return ctx.reuse.candidate(move.cc_id).bytes;
    case GreedyMove::Kind::MigrateArray:
      return ctx.program.array(move.array).bytes();
    case GreedyMove::Kind::RemoveCopy:
      return 1;  // removal frees space; any gain is pure win
  }
  return 1;
}

}  // namespace

SearchResult greedy_reference(const AssignContext& ctx, const SearchOptions& options) {
  SearchResult result;
  result.assignment = out_of_box(ctx);

  Objective objective = make_objective(ctx, options.energy_weight, options.time_weight);
  double current_scalar = oracles::scalar(objective, estimate_cost(ctx, result.assignment));
  result.evaluations = 1;

  int background = ctx.hierarchy.background();

  // One probe per enumerated candidate, charged before the candidate is
  // scored; expiry abandons the round before any move is applied, so the
  // result is always the exact state after the last accepted move.  The
  // oracle and `assign::greedy_assign` enumerate candidates identically, so
  // they charge probes at identical points and a bounded budget truncates
  // both at the same move.
  std::optional<core::RunBudget> local_budget;
  core::RunBudget& budget = search_budget(options, local_budget);
  bool cancelled = false;
  auto probe = [&]() {
    if (!cancelled && !budget.probe()) cancelled = true;
    return !cancelled;
  };

  for (int accepted = 0; accepted < options.max_moves && !cancelled; ++accepted) {
    std::optional<ScoredMove> best;
    double best_per_byte = 0.0;

    auto consider = [&](GreedyMove move, Assignment next) {
      if (!fits(ctx, next)) return;
      if (move.kind == GreedyMove::Kind::SelectCopy && !layering_valid(ctx, next)) return;
      double scalar = oracles::scalar(objective, estimate_cost(ctx, next));
      ++result.evaluations;
      double gain = current_scalar - scalar;
      if (gain <= 1e-12) return;
      double per_byte = gain / static_cast<double>(std::max<i64>(claimed_bytes(ctx, move), 1));
      move.gain = gain;
      move.gain_per_byte = per_byte;
      if (!best || per_byte > best_per_byte) {
        best_per_byte = per_byte;
        best = ScoredMove{std::move(move), std::move(next)};
      }
    };

    // Move type 1: select an unselected copy candidate onto an on-chip layer.
    for (const analysis::CopyCandidate& cc : ctx.reuse.candidates()) {
      if (cancelled) break;
      if (result.assignment.has_copy(cc.id)) continue;
      if (cc.elems <= 0) continue;
      for (int layer = 0; layer < background; ++layer) {
        if (!probe()) break;
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
        Assignment next = result.assignment;
        next.copies.push_back({cc.id, layer});
        GreedyMove move;
        move.kind = GreedyMove::Kind::SelectCopy;
        move.cc_id = cc.id;
        move.layer = layer;
        consider(std::move(move), std::move(next));
      }
    }

    // Move type 2: migrate an array's home layer.  Copies that the new home
    // renders layering-invalid (e.g. a copy on the very layer the array
    // moves to) are dropped as part of the compound move.
    if (options.allow_array_migration) {
      for (const ir::ArrayDecl& array : ctx.program.arrays()) {
        if (cancelled) break;
        int home = result.assignment.layer_of(array.name, background);
        for (int layer = 0; layer < ctx.hierarchy.num_layers(); ++layer) {
          if (!probe()) break;
          if (layer == home) continue;
          const mem::MemLayer& target = ctx.hierarchy.layer(layer);
          if (!target.unbounded() && array.bytes() > target.capacity_bytes) continue;
          Assignment next = result.assignment;
          next.array_layer[array.name] = layer;
          drop_invalid_copies(ctx, next);
          GreedyMove move;
          move.kind = GreedyMove::Kind::MigrateArray;
          move.array = array.name;
          move.layer = layer;
          consider(std::move(move), std::move(next));
        }
      }
    }

    // Move type 3: deselect a copy.  Earlier selections can turn harmful
    // once arrays migrate on-chip (the copy then duplicates a cheap layer
    // and only adds transfer traffic); removal also unblocks better chain
    // configurations.  The objective strictly decreases with every accepted
    // move, so add/remove sequences cannot cycle.
    for (const PlacedCopy& pc : result.assignment.copies) {
      if (!probe()) break;
      Assignment next = result.assignment;
      std::erase_if(next.copies,
                    [&](const PlacedCopy& other) { return other.cc_id == pc.cc_id; });
      GreedyMove move;
      move.kind = GreedyMove::Kind::RemoveCopy;
      move.cc_id = pc.cc_id;
      move.layer = pc.layer;
      consider(std::move(move), std::move(next));
    }

    if (cancelled || !best) break;
    current_scalar -= best->move.gain;
    result.assignment = std::move(best->next);
    result.moves.push_back(std::move(best->move));
  }

  result.scalar = current_scalar;
  result.status = cancelled ? SearchStatus::BudgetExhausted : SearchStatus::Feasible;
  return result;
}

}  // namespace mhla::oracles
