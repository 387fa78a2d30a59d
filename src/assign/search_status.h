#pragma once

#include <string>

namespace mhla::assign {

/// Outcome contract of a search.  Lives in its own header so the result
/// cache can name it without pulling in the search API from search.h.
///
///  * Optimal — the search proved its answer optimal (exact engines that
///    ran to completion; gap is exactly 0).
///  * Feasible — a feasible answer with no optimality claim (heuristics
///    that ran to completion).
///  * BudgetExhausted — the run budget bound before completion; the answer
///    is the best feasible assignment seen so far (anytime result).  Exact
///    engines additionally certify an optimality gap against the global
///    admissible lower bound.
///  * Infeasible — the returned assignment violates a capacity constraint
///    (only possible when a budget bound before any feasible improvement
///    could be locked in; callers must not consume the assignment).
enum class SearchStatus { Optimal, Feasible, BudgetExhausted, Infeasible };

/// Snake-case wire name ("optimal", "feasible", "budget_exhausted",
/// "infeasible") used by the JSON reports.
std::string to_string(SearchStatus status);

/// Inverse of to_string; throws std::invalid_argument on an unknown name.
SearchStatus parse_search_status(const std::string& name);

}  // namespace mhla::assign
