#pragma once

// Reference implementations the production code is equivalence-tested
// against.  They live with the tests (library `mhla_oracles`, also linked
// by bench_search_scaling) and no production path can reach them.
//
// The from-scratch searches re-evaluate every candidate state with
// `estimate_cost` over a copied assignment — no cost engine, no footprint
// tracker, no pruning — so they share no incremental machinery with the
// production search they check.  The front-end references are the
// previous implementations of the program-text parser and of the
// copy-candidate generation, kept verbatim.

#include <string>
#include <vector>

#include "analysis/reuse.h"
#include "assign/exhaustive.h"
#include "assign/greedy.h"
#include "ir/program.h"

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

/// Line-based program-text parser: `std::getline` into a vector of lines,
/// an `std::istringstream` per line to split tokens, `std::stoll` for
/// every number, recursive descent over loops.  Up to `ir::kMaxLoopDepth`
/// nesting it accepts and rejects what `ir::parse_program` does (same
/// exception type, same line), except on a content line with no token
/// (e.g. " \r" or "\v"): there it dereferences an empty token vector,
/// which is undefined behaviour.  Its number, subscript and add_array
/// errors name no line; deeper nesting can overflow the stack.
ir::Program parse_program_reference(const std::string& text);

/// The affine-subscript parser `parse_program_reference` uses.
ir::AffineExpr parse_affine_reference(const std::string& text);

/// Copy candidates from a std::map of (array name, nest, fixed-loop
/// preorder prefix) partitions, with a name-keyed coefficient map per
/// (member, dim) as the symbolic-base signature.  Same candidates, field
/// for field and in the same order, as `analysis::ReuseAnalysis::run`.
std::vector<analysis::CopyCandidate> reuse_reference(
    const ir::Program& program, const std::vector<analysis::AccessSite>& sites);

}  // namespace mhla::oracles
