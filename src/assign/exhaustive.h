#pragma once

#include "assign/cost.h"
#include "assign/inplace.h"
#include "assign/search_status.h"
#include "core/run_budget.h"

namespace mhla::assign {

/// Options for the exact branch-and-bound search.  Only usable on small
/// inputs: the search runs on the incremental CostEngine, starts from a
/// greedy incumbent, and is pruned by cumulative capacity, by an admissible
/// lower bound (including the footprint-aware copy-phase bound), and by a
/// hard state budget.
struct ExhaustiveOptions {
  double energy_weight = 1.0;
  double time_weight = 1.0;
  long max_states = 2'000'000;       ///< hard bound on evaluated states
  bool allow_array_migration = true;

  /// `exhaustive_parallel_assign` worker threads (0 = hardware concurrency).
  unsigned num_threads = 0;

  /// Cooperative run budget: one probe per evaluated state (plus one per
  /// array-phase node, so prune-heavy searches still observe a deadline
  /// promptly).  When the budget expires the search unwinds and returns
  /// best-so-far with a certified optimality gap — see ExhaustiveResult.
  /// A bounded budget also lifts the placement guard (anytime mode);
  /// `shared_budget` takes precedence over `budget`.
  core::BudgetSpec budget;
  core::RunBudget* shared_budget = nullptr;
};

/// Instance-size guards: candidate placements (candidates x on-chip layers)
/// above the guard throw std::invalid_argument.  `kEnginePlacementGuard`
/// bounds the branch-and-bound search; `kReferencePlacementGuard` bounds
/// the un-pruned from-scratch enumeration the tests use as an oracle, and
/// marks instances small enough for anything to solve exactly.
inline constexpr std::size_t kReferencePlacementGuard = 24;
inline constexpr std::size_t kEnginePlacementGuard = 64;

struct ExhaustiveResult {
  Assignment assignment;
  double scalar = 0.0;
  long states_explored = 0;       ///< evaluated leaf states
  bool exhausted_budget = false;  ///< true if a state/run budget was hit
  long bound_prunes = 0;     ///< subtrees cut by the lower bound
  long capacity_prunes = 0;  ///< placements cut by cumulative capacity

  /// Anytime contract.  Optimal (gap == 0) when the enumeration ran to
  /// completion; BudgetExhausted when `max_states` or the run budget bound,
  /// in which case `assignment` is the best feasible state seen (the greedy
  /// incumbent seed serves as a floor) and `gap` certifies
  /// (scalar - lower_bound) / scalar against the global admissible root
  /// lower bound — the true optimum lies within gap of the returned scalar.
  /// A search without a bound (the test oracle) reports gap = -1 (unknown)
  /// when truncated.
  SearchStatus status = SearchStatus::Optimal;
  double gap = -1.0;
  double lower_bound = 0.0;  ///< global admissible root bound
};

/// Branch-and-bound over every feasible (assignment of arrays to layers) x
/// (subset of copy candidates with a layer each) configuration, returning
/// the best under the scalarized objective (registry strategy "bnb").
/// Pruning discards only subtrees that cannot strictly beat the incumbent,
/// so the result is the first optimum in canonical DFS order.  Throws
/// std::invalid_argument above `kEnginePlacementGuard` placements — except
/// with a bounded run budget attached, where an over-guard instance runs in
/// anytime mode: best-so-far plus certified gap when the budget expires
/// (the guard exists to bound runtime, and a budget bounds it better).
ExhaustiveResult exhaustive_assign(const AssignContext& ctx, const ExhaustiveOptions& options = {});

/// Parallel branch-and-bound (registry strategy "bnb-par").  Subtree tasks
/// live on the per-worker deques of a `core::WorkStealingPool`: one seed
/// task descends from the root and every task offloads sibling branches —
/// array homes first, then down into the copy phase — the moment the pool
/// starves, so uneven subtrees rebalance onto idle workers instead of
/// idling them.  Tasks are canonical ordinal prefixes, replayed onto a
/// per-worker engine; every worker prunes against a shared atomic incumbent
/// bound seeded with the greedy scalar.  With one resolved worker it runs
/// the serial search itself and returns exactly `exhaustive_assign`'s
/// result, counters included.
///
/// The result — best assignment and scalar — is **bit-identical to serial
/// branch-and-bound for any thread count and any steal interleaving**: the
/// shared incumbent only ever holds scalars of feasible assignments,
/// cross-task pruning is strict (a subtree is cut only when it provably
/// cannot *equal* the incumbent), and every leaf is keyed by its canonical
/// DFS path, with local pruning strict too and ties resolved to the
/// lexicographically-first path — exactly the leaf serial DFS reaches
/// first.  Above one worker the state/prune counters, by contrast, depend
/// on incumbent-propagation timing and are not reproducible run to run;
/// `max_states` bounds each worker, and the determinism guarantee requires
/// the budget not to bind.  The instance guard is `kEnginePlacementGuard`,
/// as for the serial search.
ExhaustiveResult exhaustive_parallel_assign(const AssignContext& ctx,
                                            const ExhaustiveOptions& options = {});

}  // namespace mhla::assign
