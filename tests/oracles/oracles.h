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
// copy-candidate generation, kept verbatim.  The bounding-box footprint
// model states the reuse analysis' box and delta-transfer arithmetic from
// first principles, and the reference time extension recomputes every
// footprint from scratch per freedom unit instead of using the tracker.
// The enumerative simulator walks every loop iteration concretely to
// certify the analytic access counts and footprints.

#include <map>
#include <string>
#include <vector>

#include "analysis/reuse.h"
#include "analysis/sites.h"
#include "assign/exhaustive.h"
#include "assign/greedy.h"
#include "ir/program.h"
#include "te/extension.h"

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

/// A rectangular (bounding-box) footprint: one element-interval width per
/// array dimension.  MHLA's copy candidates are such boxes.
struct Box {
  std::vector<ir::i64> widths;  ///< elements per dimension, outermost first

  ir::i64 elems() const {
    ir::i64 n = 1;
    for (ir::i64 w : widths) n *= w;
    return n;
  }

  /// Component-wise max (union bounding box of aligned boxes).
  static Box merge(const Box& a, const Box& b);
};

/// Bounding box of `access` to `array` when the loops `path[fixed..]` vary
/// over their full ranges and the outer `fixed` loops are held constant.
///
/// Per array dimension:  width = 1 + sum over varying iterators of
/// |coef| * (trip-1) * step, clamped to the array extent.  Iterators of the
/// fixed outer loops contribute a (symbolic) offset only, not width.
Box footprint(const ir::ArrayDecl& array, const ir::ArrayAccess& access, const ir::LoopPath& path,
              std::size_t fixed);

/// Elements of `footprint(...)` that are *new* relative to the previous
/// iteration of loop `fixed-1` (the loop immediately outside the box):
/// consecutive outer iterations shift the box by |coef*step| along each
/// dimension; the non-overlapping slab must be re-transferred each time.
/// For `fixed == 0` this equals the full box (there is no outer loop).
/// For a single-site copy candidate these are its `elems` and
/// `elems_per_transfer`.
ir::i64 delta_elems(const ir::ArrayDecl& array, const ir::ArrayAccess& access,
                    const ir::LoopPath& path, std::size_t fixed);

/// `te::time_extend` with every freedom unit checked by cloning the
/// extension vector, replacing the copy's entry and re-running `fits` over
/// all footprints.  Same decisions, extension vector and budget probes as
/// the tracker-backed production pass.
te::TeResult time_extend_reference(const assign::AssignContext& ctx,
                                   const assign::Assignment& assignment,
                                   const std::vector<te::BlockTransfer>& bts,
                                   const te::TeOptions& options = {});

/// Exact, enumerative execution of a (small) program: every loop iteration
/// is walked concretely and every subscript evaluated.  The brute-force
/// oracle the property tests validate the *analytic* models (access counts,
/// bounding-box footprints, delta transfers) against.
struct ExactCounts {
  ir::i64 statement_instances = 0;
  ir::i64 dynamic_accesses = 0;
  std::map<std::string, ir::i64> accesses_per_array;  ///< dynamic accesses
  std::map<std::string, ir::i64> distinct_elements;   ///< exact footprint, elems
  bool in_bounds = true;   ///< every evaluated subscript within the extents
  bool truncated = false;  ///< stopped at the instance budget
};

/// Enumerate the whole program.  Stops (with `truncated = true`) once
/// `max_instances` statement instances have been executed, so a mistaken
/// call on a huge program degrades gracefully instead of hanging.
ExactCounts enumerate_program(const ir::Program& program, ir::i64 max_instances = 5'000'000);

/// Exact number of distinct elements the member sites of a copy-candidate
/// partition touch during ONE execution of the varying loops, maximized
/// over every concrete combination of the fixed outer iterators.  The
/// analytic bounding box must be a superset (>=) of this for every
/// candidate — the soundness property of analysis::footprint.
///
/// `site` supplies the loop context; `fixed` is the number of outer loops
/// held constant (the candidate's level).
ir::i64 exact_footprint_elems(const ir::Program& program, const analysis::AccessSite& site,
                              std::size_t fixed);

}  // namespace mhla::oracles
