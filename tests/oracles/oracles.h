#pragma once

// From-scratch reference searches.  Each one re-evaluates every candidate
// state with `estimate_cost` over a copied assignment — no cost engine, no
// footprint tracker, no pruning — so it shares no incremental machinery
// with the production search it checks.  They live with the tests (library
// `mhla_oracles`, also linked by bench_search_scaling) and are never
// reachable from the strategy registry.

#include "assign/exhaustive.h"
#include "assign/greedy.h"

namespace mhla::oracles {

/// Greedy steering search that scores each candidate by a fresh
/// `estimate_cost`.  Enumerates, scores, tie-breaks and charges budget
/// probes exactly as `assign::greedy_assign`, so the two agree move for
/// move, bit for bit — also when a bounded budget truncates both.
assign::GreedyResult greedy_reference(const assign::AssignContext& ctx,
                                      const assign::GreedyOptions& options = {});

/// Un-pruned exhaustive enumeration in the canonical DFS order of
/// `assign::exhaustive_assign`: same optimum (first of equals), at least
/// as many states.  Reads the weights, `max_states`,
/// `allow_array_migration` and the run budget; one probe per evaluated
/// state and per array-phase node.  Throws std::invalid_argument above
/// `assign::kReferencePlacementGuard` placements, budget or not.
assign::ExhaustiveResult exhaustive_reference(const assign::AssignContext& ctx,
                                              const assign::ExhaustiveOptions& options = {});

}  // namespace mhla::oracles
