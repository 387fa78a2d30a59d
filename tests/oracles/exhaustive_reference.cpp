// From-scratch exhaustive enumeration: the oracle `assign::exhaustive_assign`
// (branch-and-bound) is equivalence-tested against (see oracles.h).

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "oracles/oracles.h"

namespace mhla::oracles {

using namespace assign;

namespace {

/// The canonical feasible-home enumeration of `assign::exhaustive_assign`:
/// background first, then the on-chip layers outermost-in, skipping layers
/// the array does not fit.  Both searches keep the first optimum they meet,
/// so tied optima agree only if both visit homes in exactly this order.
template <typename Fn>
void for_each_feasible_home(const AssignContext& ctx, const ir::ArrayDecl& array,
                            bool allow_migration, Fn&& fn) {
  const int L = ctx.hierarchy.num_layers();
  const int background = ctx.hierarchy.background();
  int last = allow_migration ? L - 1 : 0;
  for (int offset = 0; offset <= last; ++offset) {
    int layer = (background + L - offset) % L;
    const mem::MemLayer& target = ctx.hierarchy.layer(layer);
    if (!target.unbounded() && array.bytes() > target.capacity_bytes) continue;
    fn(layer);
  }
}

/// Reference enumeration: from-scratch estimate_cost per state, no pruning
/// beyond per-placement capacity.
struct SearchState {
  const AssignContext& ctx;
  const SearchOptions& options;
  Objective objective;
  Assignment best;
  double best_scalar;
  long states = 0;
  bool budget_hit = false;
  core::RunBudget* run_budget = nullptr;

  void evaluate(const Assignment& assignment) {
    if (budget_hit) return;
    if (run_budget && !run_budget->probe()) {
      budget_hit = true;
      return;
    }
    if (++states > options.max_states) {
      budget_hit = true;
      return;
    }
    if (!fits(ctx, assignment)) return;
    if (!layering_valid(ctx, assignment)) return;
    double scalar = objective.scalar(estimate_cost(ctx, assignment));
    if (scalar < best_scalar) {
      best_scalar = scalar;
      best = assignment;
    }
  }

  /// Choose a layer for each copy candidate (or leave it unselected).
  void recurse_copies(Assignment& assignment, std::size_t index) {
    if (budget_hit) return;
    const auto& candidates = ctx.reuse.candidates();
    if (index == candidates.size()) {
      evaluate(assignment);
      return;
    }
    // Option A: skip this candidate.
    recurse_copies(assignment, index + 1);
    // Option B: place it on every on-chip layer it could fit.
    const analysis::CopyCandidate& cc = candidates[index];
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      const mem::MemLayer& target = ctx.hierarchy.layer(layer);
      if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
      assignment.copies.push_back({cc.id, layer});
      recurse_copies(assignment, index + 1);
      assignment.copies.pop_back();
    }
  }

  /// Choose a home layer for each array, then enumerate copies.
  void recurse_arrays(Assignment& assignment, std::size_t index) {
    if (budget_hit) return;
    if (run_budget && !run_budget->probe()) {
      budget_hit = true;
      return;
    }
    const auto& arrays = ctx.program.arrays();
    if (index == arrays.size()) {
      recurse_copies(assignment, 0);
      return;
    }
    const ir::ArrayDecl& array = arrays[index];
    int entry = assignment.layer_of(array.name, ctx.hierarchy.background());
    // Background first, so small instances find the canonical
    // everything-off-chip baseline immediately.
    for_each_feasible_home(ctx, array, options.allow_array_migration, [&](int layer) {
      assignment.array_layer[array.name] = layer;
      recurse_arrays(assignment, index + 1);
    });
    // Restore the entry value, not the background: the caller's scratch may
    // legitimately hold a non-background home for this array.
    assignment.array_layer[array.name] = entry;
  }
};

SearchResult enumerate(const AssignContext& ctx, const SearchOptions& options,
                       core::RunBudget& run_budget) {
  SearchState state{ctx, options, make_objective(ctx, options.energy_weight, options.time_weight),
                    out_of_box(ctx), 0.0, 0, false, &run_budget};
  state.best_scalar = state.objective.scalar(estimate_cost(ctx, state.best));

  Assignment scratch = out_of_box(ctx);
  state.recurse_arrays(scratch, 0);

  SearchResult result;
  result.assignment = std::move(state.best);
  result.scalar = state.best_scalar;
  result.states_explored = state.states;
  // The anytime contract without a bound: a completed run is Optimal, a
  // truncated one reports best-so-far with an unknown gap.
  if (!state.budget_hit) {
    result.status = SearchStatus::Optimal;
    result.gap = 0.0;
  } else {
    result.status = fits(ctx, result.assignment) && layering_valid(ctx, result.assignment)
                        ? SearchStatus::BudgetExhausted
                        : SearchStatus::Infeasible;
    result.gap = -1.0;
  }
  return result;
}

}  // namespace

SearchResult exhaustive_reference(const AssignContext& ctx, const SearchOptions& options) {
  std::size_t placements = ctx.reuse.candidates().size() *
                           static_cast<std::size_t>(std::max(ctx.hierarchy.background(), 1));
  if (placements > kReferencePlacementGuard) {
    throw std::invalid_argument("exhaustive_reference: instance too large (" +
                                std::to_string(placements) + " candidate placements, guard " +
                                std::to_string(kReferencePlacementGuard) + ")");
  }
  // A local token even for an unbounded spec, so the fault injector's
  // BudgetProbe site is live exactly as in the production search.
  std::optional<core::RunBudget> local;
  return enumerate(ctx, options, search_budget(options, local));
}

}  // namespace mhla::oracles
