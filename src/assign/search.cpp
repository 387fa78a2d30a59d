#include "assign/search.h"

#include <stdexcept>
#include <tuple>

namespace mhla::assign {

std::pair<double, double> target_weights(Target target) {
  switch (target) {
    case Target::Energy: return {1.0, 0.0};
    case Target::Time: return {0.0, 1.0};
    case Target::Balanced: return {1.0, 1.0};
    case Target::Custom: break;
  }
  throw std::invalid_argument("Target::Custom has no canonical weights");
}

Target parse_target(const std::string& name) {
  if (name == "energy") return Target::Energy;
  if (name == "time") return Target::Time;
  if (name == "balanced") return Target::Balanced;
  if (name == "custom") return Target::Custom;
  throw std::invalid_argument("unknown target '" + name + "' (energy|time|balanced|custom)");
}

std::string to_string(Target target) {
  switch (target) {
    case Target::Energy: return "energy";
    case Target::Time: return "time";
    case Target::Custom: return "custom";
    case Target::Balanced: break;
  }
  return "balanced";
}

SearchOptions& SearchOptions::set_target(Target target) {
  if (target != Target::Custom) {
    std::tie(energy_weight, time_weight) = target_weights(target);
  }
  return *this;
}

std::string to_string(SearchStatus status) {
  switch (status) {
    case SearchStatus::Optimal: return "optimal";
    case SearchStatus::Feasible: return "feasible";
    case SearchStatus::BudgetExhausted: return "budget_exhausted";
    case SearchStatus::Infeasible: return "infeasible";
  }
  return "feasible";
}

SearchStatus parse_search_status(const std::string& name) {
  if (name == "optimal") return SearchStatus::Optimal;
  if (name == "feasible") return SearchStatus::Feasible;
  if (name == "budget_exhausted") return SearchStatus::BudgetExhausted;
  if (name == "infeasible") return SearchStatus::Infeasible;
  throw std::invalid_argument("unknown search status '" + name +
                              "' (optimal|feasible|budget_exhausted|infeasible)");
}

core::RunBudget& search_budget(const SearchOptions& options,
                               std::optional<core::RunBudget>& local) {
  if (options.shared_budget) return *options.shared_budget;
  return local.emplace(options.budget);
}

namespace {

/// The registry: a fixed table, sorted by name.
constexpr Searcher kSearchers[] = {
    {"anneal", "seeded simulated annealing over the cost-engine move set", anneal_assign},
    {"bnb", "branch-and-bound exhaustive search (engine lower bound + capacity pruning)",
     exhaustive_assign},
    {"bnb-par",
     "parallel branch-and-bound (work-stealing subtree tasks, shared incumbent; bit-identical to bnb)",
     exhaustive_parallel_assign},
    {"greedy", "engine-backed greedy steering heuristic (MHLA step 1)", greedy_assign},
};

}  // namespace

std::vector<std::string> searcher_names() {
  std::vector<std::string> names;
  for (const Searcher& entry : kSearchers) names.emplace_back(entry.name);
  return names;
}

const Searcher& searcher(std::string_view name) {
  for (const Searcher& entry : kSearchers) {
    if (entry.name == name) return entry;
  }
  std::string message =
      "unknown search strategy '" + std::string(name) + "'; registered strategies:";
  for (const Searcher& entry : kSearchers) (message += ' ') += entry.name;
  throw std::out_of_range(message);
}

}  // namespace mhla::assign
