#include "assign/search.h"

#include <map>
#include <sstream>
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

namespace {

/// Narrowing views of SearchOptions for the concrete implementations.
GreedyOptions to_greedy_options(const SearchOptions& options) {
  GreedyOptions greedy;
  greedy.energy_weight = options.energy_weight;
  greedy.time_weight = options.time_weight;
  greedy.max_moves = options.max_moves;
  greedy.allow_array_migration = options.allow_array_migration;
  greedy.budget = options.budget;
  greedy.shared_budget = options.shared_budget;
  return greedy;
}

ExhaustiveOptions to_exhaustive_options(const SearchOptions& options) {
  ExhaustiveOptions exhaustive;
  exhaustive.energy_weight = options.energy_weight;
  exhaustive.time_weight = options.time_weight;
  exhaustive.max_states = options.max_states;
  exhaustive.allow_array_migration = options.allow_array_migration;
  exhaustive.num_threads = options.bnb_threads;
  exhaustive.work_stealing = options.bnb_work_stealing;
  exhaustive.budget = options.budget;
  exhaustive.shared_budget = options.shared_budget;
  return exhaustive;
}

AnnealOptions to_anneal_options(const SearchOptions& options) {
  AnnealOptions anneal;
  anneal.energy_weight = options.energy_weight;
  anneal.time_weight = options.time_weight;
  anneal.iterations = options.anneal_iterations;
  anneal.seed = options.anneal_seed;
  anneal.initial_temp = options.anneal_initial_temp;
  anneal.cooling = options.anneal_cooling;
  anneal.allow_array_migration = options.allow_array_migration;
  anneal.budget = options.budget;
  anneal.shared_budget = options.shared_budget;
  return anneal;
}

SearchResult from_greedy(GreedyResult greedy) {
  SearchResult result;
  result.assignment = std::move(greedy.assignment);
  result.scalar = greedy.final_scalar;
  result.moves = std::move(greedy.moves);
  result.evaluations = greedy.evaluations;
  result.status = greedy.status;
  result.exhausted_budget = greedy.status == SearchStatus::BudgetExhausted;
  return result;
}

SearchResult from_exhaustive(ExhaustiveResult exhaustive) {
  SearchResult result;
  result.assignment = std::move(exhaustive.assignment);
  result.scalar = exhaustive.scalar;
  result.states_explored = exhaustive.states_explored;
  result.exhausted_budget = exhaustive.exhausted_budget;
  result.bound_prunes = exhaustive.bound_prunes;
  result.capacity_prunes = exhaustive.capacity_prunes;
  result.status = exhaustive.status;
  result.gap = exhaustive.gap;
  result.lower_bound = exhaustive.lower_bound;
  return result;
}

/// Greedy steering heuristic on the cost engine (MHLA step 1).
class GreedySearcher final : public Searcher {
 public:
  std::string name() const override { return "greedy"; }
  std::string description() const override {
    return "engine-backed greedy steering heuristic (MHLA step 1)";
  }

  SearchResult search(const AssignContext& ctx, const SearchOptions& options) const override {
    return from_greedy(greedy_assign(ctx, to_greedy_options(options)));
  }
};

/// Branch-and-bound exhaustive search, serial or parallel.
class ExhaustiveSearcher final : public Searcher {
 public:
  ExhaustiveSearcher(std::string name, std::string description, bool parallel)
      : name_(std::move(name)), description_(std::move(description)), parallel_(parallel) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }

  SearchResult search(const AssignContext& ctx, const SearchOptions& options) const override {
    ExhaustiveOptions exhaustive = to_exhaustive_options(options);
    return from_exhaustive(parallel_ ? exhaustive_parallel_assign(ctx, exhaustive)
                                     : exhaustive_assign(ctx, exhaustive));
  }

 private:
  std::string name_;
  std::string description_;
  bool parallel_;
};

/// Seeded simulated annealing (assign/anneal.h).  Stateless across calls:
/// every walk re-seeds from the options, so one registered instance serves
/// parallel sweeps and explorations deterministically.
class AnnealSearcher final : public Searcher {
 public:
  std::string name() const override { return "anneal"; }
  std::string description() const override {
    return "seeded simulated annealing over the cost-engine move set";
  }

  SearchResult search(const AssignContext& ctx, const SearchOptions& options) const override {
    AnnealResult anneal = anneal_assign(ctx, to_anneal_options(options));
    SearchResult result;
    result.assignment = std::move(anneal.assignment);
    result.scalar = anneal.scalar;
    result.evaluations = anneal.evaluations;
    result.status = anneal.status;
    result.exhausted_budget = anneal.status == SearchStatus::BudgetExhausted;
    return result;
  }
};

std::map<std::string, std::unique_ptr<Searcher>>& registry() {
  static std::map<std::string, std::unique_ptr<Searcher>> searchers = [] {
    std::map<std::string, std::unique_ptr<Searcher>> built_in;
    auto add = [&](std::unique_ptr<Searcher> s) { built_in[s->name()] = std::move(s); };
    add(std::make_unique<GreedySearcher>());
    add(std::make_unique<ExhaustiveSearcher>(
        "bnb", "branch-and-bound exhaustive search (engine lower bound + capacity pruning)",
        false));
    add(std::make_unique<ExhaustiveSearcher>(
        "bnb-par",
        "parallel branch-and-bound (work-stealing subtree tasks, shared incumbent; bit-identical to bnb)",
        true));
    add(std::make_unique<AnnealSearcher>());
    return built_in;
  }();
  return searchers;
}

}  // namespace

std::vector<std::string> searcher_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, _] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

const Searcher& searcher(const std::string& name) {
  const auto& searchers = registry();
  auto it = searchers.find(name);
  if (it == searchers.end()) {
    std::ostringstream message;
    message << "unknown search strategy '" << name << "'; registered strategies:";
    for (const auto& [known, _] : searchers) message << " " << known;
    throw std::out_of_range(message.str());
  }
  return *it->second;
}

void register_searcher(std::unique_ptr<Searcher> strategy) {
  if (!strategy) throw std::invalid_argument("register_searcher: null strategy");
  registry()[strategy->name()] = std::move(strategy);
}

bool unregister_searcher(const std::string& name) { return registry().erase(name) > 0; }

}  // namespace mhla::assign
