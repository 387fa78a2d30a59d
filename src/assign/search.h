#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assign/anneal.h"
#include "assign/exhaustive.h"
#include "assign/greedy.h"
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

/// Unified options for every registered search strategy.  The strategy
/// consumes the subset that applies to it (greedy reads `max_moves`,
/// exhaustive reads `max_states`, ...) and ignores the rest, so one struct
/// configures any strategy selected by name.
struct SearchOptions {
  double energy_weight = 1.0;  ///< relative weight of normalized energy
  double time_weight = 1.0;    ///< relative weight of normalized time

  int max_moves = 100000;        ///< greedy: safety bound on accepted moves
  long max_states = 2'000'000;   ///< exhaustive: hard bound on evaluated states
  bool allow_array_migration = true;  ///< consider moving whole arrays on-chip

  /// "anneal" knobs (see AnnealOptions for semantics).  The seed is part of
  /// the options on purpose: a config document pins the whole stochastic
  /// walk, so annealing results reproduce bit-identically from a file.
  int anneal_iterations = 2000;
  std::uint32_t anneal_seed = 1;
  double anneal_initial_temp = 0.05;
  double anneal_cooling = 0.997;

  /// "bnb-par" knob: parallel branch-and-bound over subtree tasks sharing
  /// one atomic incumbent bound, seeded with the greedy scalar.  The result
  /// is bit-identical to serial "bnb" for any thread count (the incumbent
  /// only prunes); one worker runs the serial search itself.
  unsigned bnb_threads = 0;  ///< worker threads (0 = hardware concurrency)
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

/// Unified result of any strategy.  Greedy strategies fill the move trace
/// and `evaluations`; exhaustive strategies fill the state counters.
struct SearchResult {
  Assignment assignment;
  double scalar = 0.0;  ///< final scalarized objective value

  std::vector<GreedyMove> moves;  ///< accepted-move trace (greedy strategies)
  int evaluations = 0;            ///< cost-model invocations (greedy strategies)

  long states_explored = 0;       ///< evaluated states (exhaustive strategies)
  bool exhausted_budget = false;  ///< status == BudgetExhausted (legacy mirror)
  long bound_prunes = 0;          ///< subtrees cut by the lower bound
  long capacity_prunes = 0;       ///< placements cut by cumulative capacity

  /// Outcome contract (see assign/search_status.h).  Exact strategies that
  /// ran to completion report Optimal with gap 0; a budget-truncated exact
  /// search reports BudgetExhausted with a certified gap against
  /// `lower_bound` (gap = -1 when no admissible bound was available);
  /// heuristics report Feasible / BudgetExhausted with gap -1.
  SearchStatus status = SearchStatus::Feasible;
  double gap = -1.0;
  double lower_bound = 0.0;  ///< global admissible root bound (engine B&B only)
};

/// A search strategy selectable by name.  Implementations must be
/// stateless across `search` calls (one registered instance serves every
/// caller, including parallel batch drivers).
class Searcher {
 public:
  virtual ~Searcher() = default;
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  virtual SearchResult search(const AssignContext& ctx, const SearchOptions& options) const = 0;
};

/// Registered strategy names, sorted.  Built-ins: "anneal" (seeded
/// simulated annealing on the cost engine), "bnb" (branch-and-bound
/// exhaustive search), "bnb-par" (parallel branch-and-bound with a shared
/// incumbent, bit-identical to "bnb") and "greedy" (engine-backed steering
/// heuristic).
std::vector<std::string> searcher_names();

/// Look up a strategy by name; throws std::out_of_range whose message lists
/// every registered name (surfaced verbatim by the CLI tool).
const Searcher& searcher(const std::string& name);

/// Factory-style alias for `searcher(name)`.  The exploration subsystem and
/// its docs refer to strategies through this name.
inline const Searcher& make_searcher(const std::string& name) { return searcher(name); }

/// Register a custom strategy (replaces any previous entry with the same
/// name).  Not thread-safe against concurrent lookups; register during
/// startup.
void register_searcher(std::unique_ptr<Searcher> strategy);

/// Remove the strategy registered as `name`; returns whether there was
/// one.  Same threading caveat as register_searcher.
bool unregister_searcher(const std::string& name);

}  // namespace mhla::assign
