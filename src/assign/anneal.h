#pragma once

#include <cstdint>

#include "assign/cost.h"
#include "assign/inplace.h"
#include "assign/search_status.h"
#include "core/run_budget.h"

namespace mhla::assign {

/// Options for the simulated-annealing search (registry name "anneal").
///
/// The walk is a Metropolis chain over the same move set the greedy search
/// uses — select a copy candidate onto an on-chip layer, remove a selected
/// copy, migrate an array's home — applied and undone through the
/// incremental CostEngine.  Every random draw comes from one PRNG seeded
/// with `seed` and bounded by plain modulo, so a (program, options) pair
/// names exactly one walk on every platform and thread count.
struct AnnealOptions {
  double energy_weight = 1.0;  ///< relative weight of normalized energy
  double time_weight = 1.0;    ///< relative weight of normalized time

  int iterations = 2000;        ///< proposed moves (integral evaluation budget)
  std::uint32_t seed = 1;       ///< PRNG seed; same seed => bit-identical result
  double initial_temp = 0.05;   ///< start temperature, in normalized-scalar units
  double cooling = 0.997;       ///< geometric per-iteration temperature decay
  bool allow_array_migration = true;  ///< propose whole-array home moves

  /// Cooperative run budget: one probe per iteration, checked before the
  /// proposal is drawn, so an expired budget truncates the walk at an
  /// iteration boundary and the best-so-far state is returned (status
  /// BudgetExhausted).  `shared_budget` takes precedence over `budget`.
  core::BudgetSpec budget;
  core::RunBudget* shared_budget = nullptr;
};

/// Result of one annealing walk.  `assignment` is the best feasible state
/// visited (never worse than out-of-box: the walk starts there and the best
/// tracker only moves on strict improvement).
struct AnnealResult {
  Assignment assignment;
  double scalar = 0.0;  ///< objective of the best state
  int evaluations = 0;  ///< feasible proposals scored
  int accepted = 0;     ///< proposals accepted by the Metropolis rule

  /// Feasible on completion, BudgetExhausted when the run budget truncated
  /// the walk; the best-so-far assignment is returned either way.
  SearchStatus status = SearchStatus::Feasible;
};

/// Simulated-annealing search over copy selections and array homes.
/// Starts from the out-of-box assignment; infeasible or layering-invalid
/// proposals are rejected before scoring.
AnnealResult anneal_assign(const AssignContext& ctx, const AnnealOptions& options = {});

}  // namespace mhla::assign
