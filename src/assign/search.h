#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "assign/cost.h"
#include "assign/inplace.h"
#include "assign/search_status.h"
#include "core/run_budget.h"

namespace mhla::assign {

/// Optimization target of an MHLA search (the paper's trade-off axes).
enum class Target {
  Energy,    ///< minimize memory energy
  Time,      ///< minimize execution cycles
  Balanced,  ///< equal normalized weight on both (paper's trade-off points)
  Custom,    ///< keep the caller's explicit energy/time weights
};

/// The one named-Target -> (energy_weight, time_weight) mapping.  Every
/// evaluation goes through here (via `SearchOptions::set_target` in
/// `core::evaluate_cell`), so a target always means the same weights.
/// Target::Custom has no canonical weights and throws; use
/// `SearchOptions::set_target`, which keeps the explicit weights for it.
std::pair<double, double> target_weights(Target target);

/// Parse "energy" / "time" / "balanced" / "custom"; throws
/// std::invalid_argument on anything else.  Inverse of `to_string(Target)`.
Target parse_target(const std::string& name);
std::string to_string(Target target);

/// Options of every search strategy.  A strategy reads the subset that
/// applies to it (greedy reads `max_moves`, exhaustive reads `max_states`,
/// ...) and ignores the rest, so one struct configures any strategy
/// selected by name.
struct SearchOptions {
  double energy_weight = 1.0;  ///< relative weight of normalized energy
  double time_weight = 1.0;    ///< relative weight of normalized time

  int max_moves = 100000;        ///< greedy: safety bound on accepted moves
  long max_states = 2'000'000;   ///< exhaustive: hard bound on evaluated states
  bool allow_array_migration = true;  ///< consider moving whole arrays on-chip

  /// "anneal" knobs.  The seed is part of the options on purpose: a config
  /// document pins the whole stochastic walk, so annealing results
  /// reproduce bit-identically from a file.
  int anneal_iterations = 2000;       ///< proposed moves (integral evaluation budget)
  std::uint32_t anneal_seed = 1;      ///< PRNG seed; same seed => bit-identical result
  double anneal_initial_temp = 0.05;  ///< start temperature, in normalized-scalar units
  double anneal_cooling = 0.997;      ///< geometric per-iteration temperature decay

  /// "bnb-par" worker threads (0 = hardware concurrency).
  unsigned bnb_threads = 0;
  /// Retired: no code reads this field.  "bnb-par" has one scheduler, the
  /// work-stealing pool, and the config key is read and ignored.  The field
  /// stays only because the frozen benchmark source
  /// perfbench/src/exact_search.cpp still assigns it; delete it together
  /// with that assignment.
  bool bnb_work_stealing = true;

  /// Cooperative run budget for any strategy (see core::BudgetSpec).  The
  /// deadline/probe knobs round-trip through the JSON config ("search"
  /// object keys "deadline_seconds" / "max_probes"); the cancel flag is a
  /// live process object and never serialized.  When the budget binds, the
  /// strategy returns best-so-far with status BudgetExhausted instead of
  /// running on (exact strategies also certify an optimality gap), and a
  /// bounded budget lifts the placement guard of exact search (anytime
  /// mode).
  core::BudgetSpec budget;

  /// Live budget token shared across stages (search + time extension +
  /// batch / exploration siblings).  When set it takes precedence over
  /// `budget`, so a driver can start one deadline clock for a whole run
  /// instead of restarting it per stage.  Not serialized; compared by
  /// identity in operator==.
  core::RunBudget* shared_budget = nullptr;

  /// Replace the weights with the canonical mapping for `target`;
  /// Target::Custom leaves the explicit weights untouched.
  SearchOptions& set_target(Target target);

  friend bool operator==(const SearchOptions&, const SearchOptions&) = default;
};

/// The token a search probes: `options.shared_budget` when set, else a
/// token built into `local` from `options.budget` — also for an unbounded
/// spec, so the fault injector's BudgetProbe site is always live.
core::RunBudget& search_budget(const SearchOptions& options,
                               std::optional<core::RunBudget>& local);

/// Trace entry for one accepted greedy move, for diagnostics and the
/// tool-runtime benchmark.
struct GreedyMove {
  enum class Kind { SelectCopy, MigrateArray, RemoveCopy };
  Kind kind = Kind::SelectCopy;
  int cc_id = -1;           ///< for SelectCopy
  std::string array;        ///< for MigrateArray
  int layer = -1;
  double gain = 0.0;        ///< scalar objective improvement
  double gain_per_byte = 0.0;
};

/// Result of every search strategy.  Greedy fills the move trace and
/// `evaluations`, anneal fills `evaluations`, exhaustive search fills the
/// state counters and the bound.
struct SearchResult {
  Assignment assignment;
  double scalar = 0.0;  ///< final scalarized objective value

  std::vector<GreedyMove> moves;  ///< accepted-move trace (greedy)
  int evaluations = 0;            ///< cost-model invocations (greedy, anneal)

  long states_explored = 0;       ///< evaluated leaf states (exhaustive)
  long bound_prunes = 0;          ///< subtrees cut by the lower bound
  long capacity_prunes = 0;       ///< placements cut by cumulative capacity

  /// Outcome contract (see assign/search_status.h).  Exact strategies that
  /// ran to completion report Optimal with gap 0; a budget-truncated exact
  /// search reports BudgetExhausted with a certified gap against
  /// `lower_bound` (gap = -1 when no admissible bound was available);
  /// heuristics report Feasible / BudgetExhausted with gap -1.
  SearchStatus status = SearchStatus::Feasible;
  double gap = -1.0;
  double lower_bound = 0.0;  ///< global admissible root bound (exhaustive only)
};

/// Greedy steering heuristic (registry name "greedy", MHLA step 1): start
/// from the out-of-box assignment and repeatedly apply the feasible move
/// (select a copy candidate onto a layer, migrate an array's home layer, or
/// deselect a copy) with the best objective gain per byte of on-chip space
/// claimed; stop when no improving feasible move remains.  Candidates are
/// scored on the incremental CostEngine, feasibility comes from its
/// FootprintTracker, and each round's select-copy moves are scored in one
/// batched pass (`CostEngine::score_select_candidates`).
///
/// One budget probe is charged per scored candidate.  When the budget
/// expires the search stops before applying the next move, so the returned
/// assignment is always the consistent state after the last accepted move
/// (status BudgetExhausted) and replays exactly from `moves`.
SearchResult greedy_assign(const AssignContext& ctx, const SearchOptions& options = {});

/// Simulated annealing (registry name "anneal"): a Metropolis chain over
/// the greedy move set — select a copy candidate onto an on-chip layer,
/// remove a selected copy, migrate an array's home — applied and undone
/// through the incremental CostEngine, starting from the out-of-box
/// assignment.  Every random draw comes from one PRNG seeded with
/// `anneal_seed` and bounded by plain modulo, so a (program, options) pair
/// names exactly one walk on every platform and thread count.  Infeasible
/// or layering-invalid proposals are rejected before scoring.
///
/// The result is the best feasible state visited (never worse than
/// out-of-box); `evaluations` counts the feasible proposals scored.  One
/// probe per iteration, checked before the proposal is drawn, so an expired
/// budget truncates the walk at an iteration boundary (BudgetExhausted).
SearchResult anneal_assign(const AssignContext& ctx, const SearchOptions& options = {});

/// Instance-size guards: candidate placements (candidates x on-chip layers)
/// above the guard throw std::invalid_argument.  `kEnginePlacementGuard`
/// bounds the branch-and-bound search; `kReferencePlacementGuard` bounds
/// the un-pruned from-scratch enumeration the tests use as an oracle, and
/// marks instances small enough for anything to solve exactly.
inline constexpr std::size_t kReferencePlacementGuard = 24;
inline constexpr std::size_t kEnginePlacementGuard = 64;

/// Branch-and-bound over every feasible (assignment of arrays to layers) x
/// (subset of copy candidates with a layer each) configuration, returning
/// the best under the scalarized objective (registry name "bnb").  The
/// search runs on the incremental CostEngine, starts from a greedy
/// incumbent, and is pruned by cumulative capacity, by an admissible lower
/// bound (including the footprint-aware copy-phase bound), and by
/// `max_states`.  Pruning discards only subtrees that cannot strictly beat
/// the incumbent, so the result is the first optimum in canonical DFS
/// order.
///
/// One probe per evaluated state (plus one per array-phase node and one per
/// 64 copy-phase nodes, so prune-heavy searches still observe a deadline
/// promptly).  Anytime contract: Optimal (gap == 0) when the enumeration
/// ran to completion; BudgetExhausted when `max_states` or the run budget
/// bound, in which case `assignment` is the best feasible state seen (the
/// greedy incumbent seed serves as a floor) and `gap` certifies
/// (scalar - lower_bound) / scalar against the global admissible root lower
/// bound — the true optimum lies within gap of the returned scalar.
///
/// Throws std::invalid_argument above `kEnginePlacementGuard` placements —
/// except with a bounded run budget attached, where an over-guard instance
/// runs in anytime mode (the guard exists to bound runtime, and a budget
/// bounds it better).
SearchResult exhaustive_assign(const AssignContext& ctx, const SearchOptions& options = {});

/// Parallel branch-and-bound (registry name "bnb-par") on `bnb_threads`
/// workers.  Subtree tasks live on the per-worker deques of a
/// `core::WorkStealingPool`: one seed task descends from the root and every
/// task offloads sibling branches — array homes first, then down into the
/// copy phase — the moment the pool starves, so uneven subtrees rebalance
/// onto idle workers instead of idling them.  Tasks are canonical ordinal
/// prefixes, replayed onto a per-worker engine; every worker prunes against
/// a shared atomic incumbent bound seeded with the greedy scalar.  With one
/// resolved worker it runs the serial search itself and returns exactly
/// `exhaustive_assign`'s result, counters included.
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
SearchResult exhaustive_parallel_assign(const AssignContext& ctx,
                                        const SearchOptions& options = {});

/// A search strategy selectable by name: one row of the fixed registry.
/// `searcher(name).search(ctx, options)` runs it.
struct Searcher {
  std::string_view name;
  std::string_view description;
  SearchResult (*search)(const AssignContext& ctx, const SearchOptions& options);
};

/// Strategy names, sorted: "anneal" (`anneal_assign`), "bnb"
/// (`exhaustive_assign`), "bnb-par" (`exhaustive_parallel_assign`) and
/// "greedy" (`greedy_assign`).
std::vector<std::string> searcher_names();

/// Look up a strategy by name; throws std::out_of_range whose message lists
/// every strategy (surfaced verbatim by the CLI tool).  The registry is an
/// immutable table, so lookups are safe from any thread.
const Searcher& searcher(std::string_view name);

}  // namespace mhla::assign
