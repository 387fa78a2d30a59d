#include <cmath>
#include <optional>
#include <random>

#include "assign/cost_engine.h"
#include "assign/search.h"
#include "obs/trace.h"

namespace mhla::assign {

namespace {

/// Portable bounded draw: plain modulo over the raw 32-bit output.  The
/// (negligible) modulo bias is a fair price for determinism across standard
/// libraries — std::uniform_int_distribution is implementation-defined.
std::size_t draw(std::mt19937& rng, std::size_t n) { return rng() % n; }

double draw_unit(std::mt19937& rng) {
  return static_cast<double>(rng()) * (1.0 / 4294967296.0);
}

}  // namespace

SearchResult anneal_assign(const AssignContext& ctx, const SearchOptions& options) {
  obs::Span span("anneal_walk", "search");
  SearchResult result;

  CostEngine engine(ctx);  // loads out_of_box
  Objective objective = make_objective(engine, options.energy_weight, options.time_weight);
  double current = engine.scalar(objective);
  result.evaluations = 1;

  result.assignment = engine.assignment();
  result.scalar = current;

  std::mt19937 rng(options.anneal_seed);
  const int background = ctx.hierarchy.background();
  const auto& candidates = ctx.reuse.candidates();
  const auto& arrays = ctx.program.arrays();
  const std::size_t num_kinds = options.allow_array_migration ? 3 : 2;

  // One probe per iteration, checked before the proposal is drawn: an
  // expired budget truncates the walk at an iteration boundary, where the
  // engine holds the last accepted state and the best tracker is complete.
  std::optional<core::RunBudget> local_budget;
  core::RunBudget& budget = search_budget(options, local_budget);

  double temp = options.anneal_initial_temp;
  for (int iter = 0; iter < options.anneal_iterations; ++iter, temp *= options.anneal_cooling) {
    if (!budget.probe()) {
      result.status = SearchStatus::BudgetExhausted;
      break;
    }
    // Propose one move on the engine; `proposed` stays false when the draw
    // lands on nothing applicable (the iteration still cools the chain).
    CostEngine::Checkpoint cp = engine.checkpoint();
    bool proposed = false;
    bool needs_layering_check = false;

    switch (background == 0 ? 1 : draw(rng, num_kinds)) {
      case 0: {  // select a copy candidate onto an on-chip layer
        if (candidates.empty()) break;
        const analysis::CopyCandidate& cc = candidates[draw(rng, candidates.size())];
        int layer = static_cast<int>(draw(rng, static_cast<std::size_t>(background)));
        if (cc.elems <= 0 || engine.has_copy(cc.id)) break;
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.unbounded() && cc.bytes > target.capacity_bytes) break;
        engine.select_copy(cc.id, layer);
        needs_layering_check = true;
        proposed = true;
        break;
      }
      case 1: {  // remove a selected copy
        const auto& copies = engine.placed_copies();
        if (copies.empty()) break;
        engine.remove_copy(copies[draw(rng, copies.size())].cc_id);
        proposed = true;
        break;
      }
      default: {  // migrate an array's home layer (drawn index == array id)
        if (arrays.empty()) break;
        std::size_t a = draw(rng, arrays.size());
        int layer = static_cast<int>(draw(rng, static_cast<std::size_t>(ctx.hierarchy.num_layers())));
        if (layer == engine.home_of(a)) break;
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.unbounded() && arrays[a].bytes() > target.capacity_bytes) break;
        engine.migrate_array(a, layer);
        proposed = true;
        break;
      }
    }
    if (!proposed) continue;

    if ((needs_layering_check && !engine.layering_valid()) || !engine.fits()) {
      engine.undo_to(cp);
      continue;
    }

    double scalar = engine.scalar(objective);
    ++result.evaluations;
    double delta = scalar - current;
    bool accept = delta <= 0.0 || (temp > 0.0 && draw_unit(rng) < std::exp(-delta / temp));
    if (!accept) {
      engine.undo_to(cp);
      continue;
    }
    current = scalar;
    if (current < result.scalar) {
      result.scalar = current;
      result.assignment = engine.assignment();
    }
  }
  return result;
}

}  // namespace mhla::assign
