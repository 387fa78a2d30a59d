#pragma once

#include "assign/cost.h"
#include "assign/inplace.h"
#include "assign/search_status.h"
#include "core/run_budget.h"

namespace mhla::assign {

/// Options for the greedy steering search (MHLA step-1 heuristic).
struct GreedyOptions {
  double energy_weight = 1.0;  ///< relative weight of normalized energy
  double time_weight = 1.0;    ///< relative weight of normalized time
  int max_moves = 100000;      ///< safety bound on accepted moves
  bool allow_array_migration = true;  ///< consider moving whole arrays on-chip

  /// Cooperative run budget: one probe is charged per scored candidate.
  /// When the budget expires the search stops before applying the next
  /// move, so the returned assignment is always the consistent state after
  /// the last accepted move (status BudgetExhausted).  `shared_budget`
  /// takes precedence over `budget` (the pipeline threads one token
  /// through search + TE so a deadline never restarts per stage).
  core::BudgetSpec budget;
  core::RunBudget* shared_budget = nullptr;
};

/// Trace entry for one accepted move, for diagnostics and the tool-runtime
/// benchmark.
struct GreedyMove {
  enum class Kind { SelectCopy, MigrateArray, RemoveCopy };
  Kind kind = Kind::SelectCopy;
  int cc_id = -1;           ///< for SelectCopy
  std::string array;        ///< for MigrateArray
  int layer = -1;
  double gain = 0.0;        ///< scalar objective improvement
  double gain_per_byte = 0.0;
};

struct GreedyResult {
  Assignment assignment;
  std::vector<GreedyMove> moves;
  double final_scalar = 0.0;
  int evaluations = 0;  ///< cost-model invocations (search effort metric)

  /// Feasible on completion, BudgetExhausted when the run budget bound
  /// first.  Either way `assignment` replays exactly from `moves`.
  SearchStatus status = SearchStatus::Feasible;
};

/// Greedy steering heuristic: start from the out-of-box assignment and
/// repeatedly apply the feasible move (select a copy candidate onto a layer,
/// migrate an array's home layer, or deselect a copy) with the best
/// objective gain per byte of on-chip space claimed; stop when no improving
/// feasible move remains.  Candidates are scored on the incremental
/// CostEngine, feasibility comes from its FootprintTracker, and each
/// round's select-copy moves are scored in one batched pass
/// (`CostEngine::score_select_candidates`).
GreedyResult greedy_assign(const AssignContext& ctx, const GreedyOptions& options = {});

}  // namespace mhla::assign
