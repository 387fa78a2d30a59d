#include "assign/exhaustive.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include <cstddef>
#include <cstdio>

#include "assign/cost_engine.h"
#include "assign/greedy.h"
#include "core/parallel_for.h"
#include "core/run_budget.h"
#include "core/work_stealing.h"
#include "obs/trace.h"

namespace mhla::assign {

namespace {

/// The canonical feasible-home enumeration: background first, then the
/// on-chip layers outermost-in, skipping layers the array does not fit.
/// Every phase that walks or mirrors the array-home decision — the DFS, the
/// bound precompute and the bnb-par root-frontier split — goes through
/// here: the bit-identity guarantee (parallel vs serial) leans on all of
/// them visiting homes in exactly this order, and the test oracle
/// (tests/oracles/) enumerates homes in the same order.
template <typename Fn>
void for_each_feasible_home(const AssignContext& ctx, const ir::ArrayDecl& array,
                            bool allow_migration, Fn&& fn) {
  const int L = ctx.hierarchy.num_layers();
  const int background = ctx.hierarchy.background();
  int last = allow_migration ? L - 1 : 0;
  for (int offset = 0; offset <= last; ++offset) {
    int layer = (background + L - offset) % L;
    const mem::MemLayer& target = ctx.hierarchy.layer(layer);
    if (!target.unbounded() && array.bytes() > target.capacity_bytes) continue;
    fn(layer);
  }
}

/// The work-stealing copy phase offloads its Option-B branches only while
/// at least this many candidates remain undecided: below it, replaying a
/// task's prefix costs about as much as searching the subtree in place.
constexpr std::size_t kMinCopySplit = 8;

/// Copy-phase nodes charged to the run budget per probe: often enough that
/// an exponential copy phase cannot outrun a deadline or probe allowance,
/// rare enough that an unbounded solve pays no per-node atomic.
constexpr long kCopyNodesPerProbe = 64;

/// Static-split parallel search: target root-frontier tasks per worker.
constexpr std::size_t kStaticTasksPerThread = 4;

/// Stamp the anytime contract fields onto a finished (or truncated) result:
/// map a completed run to Optimal/gap 0; on a truncated run substitute the
/// greedy fallback when it beats the incumbent, certify the gap against the
/// global root lower bound, and verify the returned assignment is actually
/// consumable.
void finalize_anytime(ExhaustiveResult& result, const AssignContext& ctx, bool budget_hit,
                      double lower_bound, const GreedyResult* fallback) {
  result.exhausted_budget = budget_hit;
  result.lower_bound = lower_bound;
  if (!budget_hit) {
    result.status = SearchStatus::Optimal;
    result.gap = 0.0;
    return;
  }
  if (fallback && fallback->final_scalar < result.scalar) {
    result.assignment = fallback->assignment;
    result.scalar = fallback->final_scalar;
  }
  result.status = fits(ctx, result.assignment) && layering_valid(ctx, result.assignment)
                      ? SearchStatus::BudgetExhausted
                      : SearchStatus::Infeasible;
  if (result.scalar > 0.0) {
    result.gap = std::max(0.0, (result.scalar - lower_bound) / result.scalar);
  } else {
    result.gap = -1.0;
  }
}

/// Engine-backed branch-and-bound.  Same DFS order as an un-pruned
/// enumeration, so the first strictly-improving state is found identically;
/// pruning discards only subtrees whose admissible lower bound shows they
/// cannot *strictly* beat the incumbent, and placements whose cumulative
/// (layer, nest) footprint already overflows a bounded layer (copy
/// selection only ever adds footprint, so no completion of such a branch
/// is feasible).
///
/// Copyable on purpose: the parallel search stamps one task search per
/// root-frontier subtree from a shared prototype, reusing the engine
/// precompute and the bound tables instead of rebuilding them per task.
struct EngineSearch {
  const AssignContext& ctx;
  const ExhaustiveOptions& options;
  CostEngine engine;
  Objective objective;
  Assignment best;
  double best_scalar = 0.0;
  long states = 0;
  bool budget_hit = false;
  long bound_prunes = 0;
  long capacity_prunes = 0;

  /// Cooperative run budget (never null in practice: the entry points
  /// always resolve one, if only an unlimited local).  Probed once per
  /// evaluated leaf, once per array-phase node and once per
  /// kCopyNodesPerProbe copy-phase nodes; never affects any decision unless
  /// it expires, so run-to-completion results are bit-identical with or
  /// without a budget attached.
  core::RunBudget* run_budget = nullptr;
  long uncharged_copy_nodes = 0;  ///< copy-phase nodes since the last charge

  /// Shared incumbent of a parallel search (null when serial).  Tasks
  /// publish every locally improving scalar and prune against it *strictly*
  /// — a subtree is cut only when it provably cannot even equal the shared
  /// value — so the canonical-DFS-order optimum survives in its own task
  /// regardless of which task lowered the bound first.
  core::AtomicMin* shared_incumbent = nullptr;

  // ---- work-stealing mode (one search per pool worker) ----
  /// On: this search is one worker of a work-stealing parallel run and
  /// accumulates bests from subtree tasks visited in *arbitrary* order, so
  /// canonical-first tie semantics cannot lean on visit order.  Instead the
  /// search keys every leaf by its canonical path: local pruning turns
  /// strict (a subtree that could still tie survives) and a tied leaf
  /// replaces the incumbent iff its path is lexicographically smaller — see
  /// `evaluate_leaf` and the reduction in `exhaustive_parallel_ws`.
  bool ws_mode = false;
  core::WorkStealingPool* pool = nullptr;
  /// Offload hook: hand a canonical ordinal prefix to the pool as a new
  /// task.  Set per worker by the parallel driver; consulted only when the
  /// pool is starving.
  std::function<void(std::vector<int>)> spawn_subtree;
  /// Canonical DFS path of the current node, one ordinal per decision:
  /// entry a < A is the position of array a's home in the canonical
  /// feasible-home enumeration; entry A + j is candidate j's choice — 0 to
  /// skip, k >= 1 for the k-th on-chip layer the candidate *individually*
  /// fits.  The mapping is assignment-state-independent (cumulative
  /// overflow never renumbers), so a prefix replays to the identical
  /// subtree on any worker, and lexicographic order over full paths equals
  /// canonical DFS order.  Maintained only in ws_mode.
  std::vector<int> cur_path_;
  std::vector<int> best_path_;  ///< path of `best` (all zeros = out-of-box)

  /// Running lower bound, split into an exact part (terms whose final value
  /// is already fixed) and an optimistic part (admissible minima for the
  /// still-open decisions).  Passed by value down the DFS so backtracking
  /// restores it exactly.
  struct Bound {
    double exact_e = 0.0;
    double exact_c = 0.0;
    double opt_e = 0.0;
    double opt_c = 0.0;
  };

  // -- static bound tables (per context) --
  std::vector<double> cc_lb_e_;  ///< [cc * L + dst]: min over src > dst
  std::vector<double> cc_lb_c_;
  /// [j] -> sites whose suffix minimum actually changes when candidate j is
  /// decided (engine.site_suffix at j+1 differs from j).  With candidates
  /// sorted (array, nest, level) the deepest chain member usually carries
  /// the minimum, so for most candidates this list is empty and the
  /// per-node tightening costs nothing; a site whose last useful candidate
  /// dies mid-chain tightens the moment it does.  CSR-flattened (items +
  /// offsets) so per-worker copies are two contiguous blocks.
  std::vector<int> tighten_items_;
  std::vector<std::size_t> tighten_off_;
  core::IntSpan tighten_at(std::size_t j) const {
    const int* base = tighten_items_.data();
    return {base + tighten_off_[j], base + tighten_off_[j + 1]};
  }
  /// Per-site optimistic term before the array's home is decided: min over
  /// the homes the DFS may choose (background always qualifies) and over
  /// the copy suffix minima — the array-home-phase part of the bound.
  std::vector<double> site_open_e_;
  std::vector<double> site_open_c_;
  std::vector<int> array_sites_items_;  ///< array index -> site ids (CSR)
  std::vector<std::size_t> array_sites_off_;
  core::IntSpan array_sites(std::size_t a) const {
    const int* base = array_sites_items_.data();
    return {base + array_sites_off_[a], base + array_sites_off_[a + 1]};
  }
  // -- per copy phase --
  std::vector<double> site_lb_e_;  ///< current per-site bound contribution
  std::vector<double> site_lb_c_;

  // -- footprint-aware copy-phase bound (rebuilt at each copy-phase entry) --
  /// The engine's static suffix tables min over every layer a candidate
  /// *individually* fits — too optimistic once the homes-only footprint of
  /// this copy-phase entry already denies some of those placements.  When
  /// that happens the dynamic tables below rebuild the identical suffix
  /// recurrence over only the placements with entry headroom
  /// (usage(layer, nest) + bytes <= capacity).  Copy selection only ever
  /// adds footprint, so entry-feasible is a superset of selectable anywhere
  /// in the subtree: dropping the denied terms keeps the bound admissible
  /// while a site whose every remaining placement is denied contributes its
  /// exact serving term (suffix +inf) instead of an unreachable optimistic
  /// one.  When nothing is denied, `dyn_active_` stays false and the bound
  /// reads the static tables untouched.
  bool dyn_active_ = false;
  std::vector<double> dyn_suffix_e_;  ///< [site * (C + 1) + next_cc]
  std::vector<double> dyn_suffix_c_;
  std::vector<char> entry_fits_;      ///< scratch: [cc * background + layer]

  double suffix_e(std::size_t site, std::size_t next_cc) const {
    return dyn_active_ ? dyn_suffix_e_[site * (ctx.reuse.candidates().size() + 1) + next_cc]
                       : engine.site_suffix_energy(site, next_cc);
  }
  double suffix_c(std::size_t site, std::size_t next_cc) const {
    return dyn_active_ ? dyn_suffix_c_[site * (ctx.reuse.candidates().size() + 1) + next_cc]
                       : engine.site_suffix_cycles(site, next_cc);
  }

  /// Recompute the entry-feasibility filter and, if it denies anything, the
  /// dynamic suffix tables.  Called once per copy-phase entry, before any
  /// copy is selected, so `engine.footprint()` holds exactly the homes-only
  /// usage; a replayed task recomputes byte-identical tables because the
  /// same homes produce the same footprint.
  void prepare_copy_bound() {
    dyn_active_ = false;
    const auto& candidates = ctx.reuse.candidates();
    const std::size_t C = candidates.size();
    const int background = ctx.hierarchy.background();
    entry_fits_.assign(C * static_cast<std::size_t>(background), 0);
    bool denied = false;
    for (std::size_t c = 0; c < C; ++c) {
      const analysis::CopyCandidate& cc = candidates[c];
      for (int layer = 0; layer < background; ++layer) {
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
        bool fits_here = target.unbounded() ||
                         engine.footprint().usage(layer, cc.nest) + cc.bytes <=
                             target.capacity_bytes;
        if (fits_here) {
          entry_fits_[c * static_cast<std::size_t>(background) +
                      static_cast<std::size_t>(layer)] = 1;
        } else {
          denied = true;
        }
      }
    }
    if (!denied) return;  // static tables already exact for this entry
    dyn_active_ = true;
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t S = engine.num_sites();
    dyn_suffix_e_.assign(S * (C + 1), inf);
    dyn_suffix_c_.assign(S * (C + 1), inf);
    // Same recurrence as the engine's static precompute, filtered: column C
    // is "no candidate left"; walking ids downward folds in the cheapest
    // *entry-feasible* term candidate c could still give each member site.
    for (std::size_t c = C; c-- > 0;) {
      for (std::size_t s = 0; s < S; ++s) {
        dyn_suffix_e_[s * (C + 1) + c] = dyn_suffix_e_[s * (C + 1) + c + 1];
        dyn_suffix_c_[s * (C + 1) + c] = dyn_suffix_c_[s * (C + 1) + c + 1];
      }
      for (int layer = 0; layer < background; ++layer) {
        if (!entry_fits_[c * static_cast<std::size_t>(background) +
                         static_cast<std::size_t>(layer)]) {
          continue;
        }
        for (int site : engine.candidate_sites(static_cast<int>(c))) {
          std::size_t s = static_cast<std::size_t>(site);
          dyn_suffix_e_[s * (C + 1) + c] =
              std::min(dyn_suffix_e_[s * (C + 1) + c], engine.site_energy_term(s, layer));
          dyn_suffix_c_[s * (C + 1) + c] =
              std::min(dyn_suffix_c_[s * (C + 1) + c], engine.site_cycle_term(s, layer));
        }
      }
    }
  }

  /// Backtracking journal for the per-site bound contributions; tighten
  /// pushes the displaced values, restore pops to a mark.  An arena stack
  /// reserved for the deepest possible DFS path (every tighten list fully
  /// pushed at once) keeps the hot path allocation-free outright.
  struct SavedSite {
    int site;
    double e;
    double c;
  };
  core::ArenaStack<SavedSite> saved_sites_;

  EngineSearch(const AssignContext& c, const ExhaustiveOptions& o)
      : ctx(c),
        options(o),
        engine(c),
        objective(make_objective(c, o.energy_weight, o.time_weight)) {
    best_scalar = engine.scalar(objective);
    best = engine.assignment();
    precompute_bounds();
  }

  void precompute_bounds() {
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t C = ctx.reuse.candidates().size();
    const std::size_t S = engine.num_sites();
    const int L = ctx.hierarchy.num_layers();
    const int background = ctx.hierarchy.background();

    cc_lb_e_.assign(C * static_cast<std::size_t>(L), 0.0);
    cc_lb_c_.assign(C * static_cast<std::size_t>(L), 0.0);
    for (std::size_t c = 0; c < C; ++c) {
      for (int dst = 0; dst < background; ++dst) {
        double lb_e = inf;
        double lb_c = inf;
        // Layering-valid states have src > dst; invalid leaves are rejected,
        // so bounding over valid parents only is admissible.
        for (int src = dst + 1; src < L; ++src) {
          lb_e = std::min(lb_e, engine.cc_energy_term(static_cast<int>(c), src, dst));
          lb_c = std::min(lb_c, engine.cc_cycle_term(static_cast<int>(c), src, dst));
        }
        cc_lb_e_[c * static_cast<std::size_t>(L) + static_cast<std::size_t>(dst)] = lb_e;
        cc_lb_c_[c * static_cast<std::size_t>(L) + static_cast<std::size_t>(dst)] = lb_c;
      }
    }

    // Both per-index site lists are built row by row and flattened to CSR:
    // tighten lists directly into the flat arrays (candidate order), the
    // array->sites map via a counting sort over the site->array table.
    tighten_off_.assign(C + 1, 0);
    tighten_items_.clear();
    for (std::size_t c = 0; c < C; ++c) {
      for (int site : engine.candidate_sites(static_cast<int>(c))) {
        std::size_t s = static_cast<std::size_t>(site);
        if (engine.site_suffix_energy(s, c + 1) != engine.site_suffix_energy(s, c) ||
            engine.site_suffix_cycles(s, c + 1) != engine.site_suffix_cycles(s, c)) {
          tighten_items_.push_back(site);
        }
      }
      tighten_off_[c + 1] = tighten_items_.size();
    }
    // The deepest DFS path pushes every tighten list at most once, so the
    // flat item count bounds the journal depth exactly.
    saved_sites_.reserve(tighten_items_.size());

    const auto& arrays = ctx.program.arrays();
    array_sites_off_.assign(arrays.size() + 1, 0);
    for (std::size_t s = 0; s < S; ++s) ++array_sites_off_[engine.site_array(s) + 1];
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      array_sites_off_[a + 1] += array_sites_off_[a];
    }
    array_sites_items_.assign(S, 0);
    {
      std::vector<std::size_t> cursor(array_sites_off_.begin(), array_sites_off_.end() - 1);
      for (std::size_t s = 0; s < S; ++s) {
        array_sites_items_[cursor[engine.site_array(s)]++] = static_cast<int>(s);
      }
    }
    site_open_e_.assign(S, inf);
    site_open_c_.assign(S, inf);
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      for_each_feasible_home(ctx, arrays[a], options.allow_array_migration, [&](int home) {
        for (int site : array_sites(a)) {
          std::size_t s = static_cast<std::size_t>(site);
          site_open_e_[s] = std::min(site_open_e_[s], engine.site_energy_term(s, home));
          site_open_c_[s] = std::min(site_open_c_[s], engine.site_cycle_term(s, home));
        }
      });
    }
    for (std::size_t s = 0; s < S; ++s) {
      site_open_e_[s] = std::min(site_open_e_[s], engine.site_suffix_energy(s, 0));
      site_open_c_[s] = std::min(site_open_c_[s], engine.site_suffix_cycles(s, 0));
    }
  }

  /// Admissible scalar lower bound for every completion of the current node.
  /// The tiny relative margin absorbs floating-point drift in the running
  /// sums so pruning never discards a state that could strictly improve.
  /// Against the local incumbent the cut is `>=` in serial mode (first
  /// state found in DFS order keeps a tied scalar, so a later tie is
  /// useless) but strictly `>` in ws_mode: the worker's best may come from
  /// a canonically *later* task, so a subtree that could still tie may hold
  /// the canonical-first optimum and must survive for the path tie-break.
  /// Against the shared incumbent of a parallel search the cut is always
  /// strict for the same reason.
  bool prune(const Bound& bound) {
    double lb = objective.scalar_terms(bound.exact_e + bound.opt_e, bound.exact_c + bound.opt_c);
    double discounted = lb * (1.0 - 1e-9);
    bool local_cut = ws_mode ? discounted > best_scalar : discounted >= best_scalar;
    if (local_cut || (shared_incumbent && discounted > shared_incumbent->load())) {
      ++bound_prunes;
      return true;
    }
    return false;
  }

  void evaluate_leaf() {
    if (budget_hit) return;
    if (run_budget && !run_budget->probe()) {
      budget_hit = true;
      return;
    }
    if (++states > options.max_states) {
      budget_hit = true;
      return;
    }
    // Feasibility holds by construction — every placement on the path
    // passed the incremental (layer, nest) footprint check — but the
    // tracker makes the confirming check O(1).
    if (!engine.fits()) return;
    if (!engine.layering_valid()) return;
    double scalar = engine.scalar(objective);
    // Serial tie semantics fall out of visit order (first tie wins, later
    // ties are not improvements).  In ws_mode ties are decided by canonical
    // path instead, because this worker visits subtrees in steal order.
    bool improved = scalar < best_scalar ||
                    (ws_mode && scalar == best_scalar && cur_path_ < best_path_);
    if (improved) {
      best_scalar = scalar;
      best = engine.assignment();
      if (ws_mode) best_path_ = cur_path_;
      if (shared_incumbent) shared_incumbent->update(scalar);
      // Incumbent timeline: rare (once per improvement), observation-only,
      // and gated on one relaxed load, so the search path never changes.
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled()) {
        char args[64];
        std::snprintf(args, sizeof args, "{\"scalar\": %.17g, \"state\": %ld}", scalar, states);
        tracer.instant("incumbent", "search", args);
      }
    }
  }

  /// Candidate j has just been decided (skipped, or selected on the engine):
  /// its member sites can no longer receive a copy from it, so each bound
  /// contribution tightens to min(current serving term, suffix minimum over
  /// candidates > j).  Once a site's last covering candidate is decided the
  /// suffix is +inf and the contribution becomes the exact serving term.
  /// Displaced values go on `saved_sites_`; the caller restores to its mark.
  /// Only sites whose *static* suffix minimum moves are touched — with the
  /// dynamic (footprint-filtered) tables active a site may keep a stale,
  /// smaller contribution past the step where only its dynamic suffix rose;
  /// that is merely a weaker admissible bound, and spawn/replay tighten at
  /// identical steps either way.
  void tighten_sites(std::size_t j, Bound& bound) {
    for (int site : tighten_at(j)) {
      std::size_t s = static_cast<std::size_t>(site);
      int layer = engine.serving_layer(s);
      double e = std::min(engine.site_energy_term(s, layer), suffix_e(s, j + 1));
      double c = std::min(engine.site_cycle_term(s, layer), suffix_c(s, j + 1));
      saved_sites_.push_back({site, site_lb_e_[s], site_lb_c_[s]});
      bound.opt_e += e - site_lb_e_[s];
      bound.opt_c += c - site_lb_c_[s];
      site_lb_e_[s] = e;
      site_lb_c_[s] = c;
    }
  }

  void restore_sites(std::size_t mark) {
    while (saved_sites_.size() > mark) {
      const SavedSite& saved = saved_sites_.back();
      std::size_t s = static_cast<std::size_t>(saved.site);
      site_lb_e_[s] = saved.e;
      site_lb_c_[s] = saved.c;
      saved_sites_.pop_back();
    }
  }

  void recurse_copies(std::size_t j, Bound bound) {
    if (budget_hit) return;
    if (++uncharged_copy_nodes == kCopyNodesPerProbe) {
      uncharged_copy_nodes = 0;
      if (run_budget && !run_budget->probe(kCopyNodesPerProbe)) {
        budget_hit = true;
        return;
      }
    }
    if (prune(bound)) return;

    const auto& candidates = ctx.reuse.candidates();
    if (j == candidates.size()) {
      evaluate_leaf();
      return;
    }
    const std::size_t A = ctx.program.arrays().size();
    // Work-stealing split: when peers are starving and enough candidates
    // remain for the subtree to outweigh a prefix replay, hand every
    // Option-B branch to the pool and keep only the skip branch locally.
    // The spawn-time guards mirror the local branch guards exactly —
    // individual fit assigns the ordinal, cumulative overflow prunes — so a
    // spawned ordinal always replays to a branch this DFS would have
    // entered, with the identical capacity_prunes count.
    if (ws_mode && spawn_subtree && candidates.size() - j >= kMinCopySplit &&
        pool->starving()) {
      const analysis::CopyCandidate& split_cc = candidates[j];
      int ordinal = 0;
      for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
        const mem::MemLayer& target = ctx.hierarchy.layer(layer);
        if (!target.unbounded() && split_cc.bytes > target.capacity_bytes) continue;
        ++ordinal;
        if (!target.unbounded() &&
            engine.footprint().usage(layer, split_cc.nest) + split_cc.bytes >
                target.capacity_bytes) {
          ++capacity_prunes;
          continue;
        }
        std::vector<int> prefix(cur_path_.begin(),
                                cur_path_.begin() + static_cast<std::ptrdiff_t>(A + j));
        prefix.push_back(ordinal);
        spawn_subtree(std::move(prefix));
      }
      cur_path_[A + j] = 0;
      Bound child = bound;
      std::size_t mark = saved_sites_.size();
      tighten_sites(j, child);
      recurse_copies(j + 1, child);
      restore_sites(mark);
      return;
    }
    // Option A: skip this candidate.
    {
      if (ws_mode) cur_path_[A + j] = 0;
      Bound child = bound;
      std::size_t mark = saved_sites_.size();
      tighten_sites(j, child);
      recurse_copies(j + 1, child);
      restore_sites(mark);
    }
    // Option B: place it on every on-chip layer it fits individually, unless
    // the cumulative (lifetime-aware) footprint of its nest prunes it.
    const analysis::CopyCandidate& cc = candidates[j];
    int ordinal = 0;
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      const mem::MemLayer& target = ctx.hierarchy.layer(layer);
      if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
      ++ordinal;
      // The engine's tracker carries the cumulative (layer, nest) footprint
      // of the whole path — array homes plus the copies selected so far —
      // so one cell read decides whether this placement can still fit.
      // Copy selection only ever adds footprint: an overflowing branch has
      // no feasible completion, so it is cut here.
      bool overflows = !target.unbounded() &&
                       engine.footprint().usage(layer, cc.nest) + cc.bytes >
                           target.capacity_bytes;
      if (overflows) {
        ++capacity_prunes;
        continue;
      }
      if (ws_mode) cur_path_[A + j] = ordinal;
      CostEngine::Checkpoint cp = engine.checkpoint();
      engine.select_copy(cc.id, layer);
      Bound child = bound;
      std::size_t mark = saved_sites_.size();
      child.opt_e += cc_lb_e_[j * static_cast<std::size_t>(ctx.hierarchy.num_layers()) +
                              static_cast<std::size_t>(layer)];
      child.opt_c += cc_lb_c_[j * static_cast<std::size_t>(ctx.hierarchy.num_layers()) +
                              static_cast<std::size_t>(layer)];
      tighten_sites(j, child);
      recurse_copies(j + 1, child);
      restore_sites(mark);
      engine.undo_to(cp);
    }
  }

  /// Map a home ordinal back to the layer at that position of the canonical
  /// feasible-home enumeration for array `a` — the inverse of the numbering
  /// in `recurse_arrays`.
  int home_ordinal_layer(std::size_t a, int ordinal) const {
    int found = -1;
    int seen = 0;
    for_each_feasible_home(ctx, ctx.program.arrays()[a], options.allow_array_migration,
                           [&](int layer) {
                             if (seen++ == ordinal) found = layer;
                           });
    if (found < 0) throw std::logic_error("exhaustive: home ordinal out of range");
    return found;
  }

  /// Map a copy ordinal k >= 1 back to the k-th on-chip layer candidate `j`
  /// individually fits — the inverse of the numbering in `recurse_copies`.
  int copy_ordinal_layer(std::size_t j, int ordinal) const {
    const analysis::CopyCandidate& cc = ctx.reuse.candidates()[j];
    int seen = 0;
    for (int layer = 0; layer < ctx.hierarchy.background(); ++layer) {
      const mem::MemLayer& target = ctx.hierarchy.layer(layer);
      if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
      if (++seen == ordinal) return layer;
    }
    throw std::logic_error("exhaustive: copy ordinal out of range");
  }

  /// Replay one copy decision of a stolen task's prefix onto the engine and
  /// the bound (ws_mode only).  No prune or feasibility
  /// re-checks: the spawning worker ran them on the identical deterministic
  /// state before offloading, so re-running could only agree.
  void apply_copy_ordinal(std::size_t j, int ordinal, Bound& bound) {
    cur_path_[ctx.program.arrays().size() + j] = ordinal;
    if (ordinal > 0) {
      int layer = copy_ordinal_layer(j, ordinal);
      engine.select_copy(ctx.reuse.candidates()[j].id, layer);
      bound.opt_e += cc_lb_e_[j * static_cast<std::size_t>(ctx.hierarchy.num_layers()) +
                              static_cast<std::size_t>(layer)];
      bound.opt_c += cc_lb_c_[j * static_cast<std::size_t>(ctx.hierarchy.num_layers()) +
                              static_cast<std::size_t>(layer)];
    }
    tighten_sites(j, bound);
  }

  /// Copy-phase entry, optionally replaying the copy-ordinal prefix of a
  /// stolen task before recursing at candidate `j0`.  Array homes are fixed
  /// from here on: the pinned traffic and the array-only footprint are
  /// exact, and no copies are selected yet, so the engine's tracker holds
  /// exactly the homes-only footprint the footprint-aware bound filters
  /// against.  The bound is rebuilt from scratch — the same homes always
  /// produce the same numbers, so a replayed subtree prunes identically to
  /// the subtree the spawning worker would have descended.
  void enter_copy_phase_at(std::size_t j0, const int* ordinals) {
    if (!engine.fits()) return;  // no copy subset can shrink an array overflow

    prepare_copy_bound();
    Bound bound;
    auto [pin_e, pin_c] = engine.pinned_totals();
    bound.exact_e = pin_e;
    bound.exact_c = engine.compute_cycles() + pin_c;

    const std::size_t S = engine.num_sites();
    site_lb_e_.assign(S, 0.0);
    site_lb_c_.assign(S, 0.0);
    for (std::size_t s = 0; s < S; ++s) {
      // No copies are selected yet, so serving_layer == the array's home;
      // suffix 0 is the minimum over every covering candidate.
      int home = engine.serving_layer(s);
      site_lb_e_[s] = std::min(engine.site_energy_term(s, home), suffix_e(s, 0));
      site_lb_c_[s] = std::min(engine.site_cycle_term(s, home), suffix_c(s, 0));
      bound.opt_e += site_lb_e_[s];
      bound.opt_c += site_lb_c_[s];
    }
    for (std::size_t j = 0; j < j0; ++j) apply_copy_ordinal(j, ordinals[j], bound);
    recurse_copies(j0, bound);
  }

  void enter_copy_phase() { enter_copy_phase_at(0, nullptr); }

  /// Fold array `a`'s home decision into the array-phase bound: its pinned
  /// traffic becomes exact and its sites' contributions move from the
  /// any-home optimistic term to min(term at the chosen home, copy suffix).
  /// The bound travels by value down the DFS, so no restore is needed.
  void apply_home_to_bound(std::size_t a, int home, Bound& bound) {
    bound.exact_e += engine.pinned_energy_term(a, home);
    bound.exact_c += engine.pinned_cycle_term(a, home);
    for (int site : array_sites(a)) {
      std::size_t s = static_cast<std::size_t>(site);
      double e = std::min(engine.site_energy_term(s, home), engine.site_suffix_energy(s, 0));
      double c = std::min(engine.site_cycle_term(s, home), engine.site_suffix_cycles(s, 0));
      bound.opt_e += e - site_open_e_[s];
      bound.opt_c += c - site_open_c_[s];
    }
  }

  void recurse_arrays(std::size_t index, Bound bound) {
    if (budget_hit) return;
    if (run_budget && !run_budget->probe()) {
      budget_hit = true;
      return;
    }
    if (prune(bound)) return;
    const auto& arrays = ctx.program.arrays();
    if (index == arrays.size()) {
      enter_copy_phase();
      return;
    }
    const ir::ArrayDecl& array = arrays[index];
    // Work-stealing split: offload every sibling home but the canonical
    // first and descend only that one.  The array phase is shallow and
    // every subtree under it is large, so it splits whenever peers starve.
    if (ws_mode && spawn_subtree && pool->starving()) {
      int count = 0;
      for_each_feasible_home(ctx, array, options.allow_array_migration, [&](int) { ++count; });
      for (int ordinal = 1; ordinal < count; ++ordinal) {
        std::vector<int> prefix(cur_path_.begin(),
                                cur_path_.begin() + static_cast<std::ptrdiff_t>(index));
        prefix.push_back(ordinal);
        spawn_subtree(std::move(prefix));
      }
      if (count > 0) {
        int first = home_ordinal_layer(index, 0);
        cur_path_[index] = 0;
        CostEngine::Checkpoint cp = engine.checkpoint();
        engine.set_home(index, first);
        Bound child = bound;
        apply_home_to_bound(index, first, child);
        recurse_arrays(index + 1, child);
        engine.undo_to(cp);
      }
      return;
    }
    int ordinal = 0;
    for_each_feasible_home(ctx, array, options.allow_array_migration, [&](int layer) {
      if (ws_mode) cur_path_[index] = ordinal;
      ++ordinal;
      CostEngine::Checkpoint cp = engine.checkpoint();
      engine.set_home(index, layer);
      Bound child = bound;
      apply_home_to_bound(index, layer, child);
      recurse_arrays(index + 1, child);
      engine.undo_to(cp);
    });
  }

  /// Global admissible scalar lower bound of the whole search (the root
  /// bound of `run(0)` before any decision): every feasible assignment
  /// costs at least this much.  Built from the static per-site/per-array
  /// tables, so it is independent of the engine's current state — the
  /// anytime gap certificate compares the incumbent against it.
  double root_scalar_bound() {
    Bound bound;
    bound.exact_c = engine.compute_cycles();
    const std::size_t S = engine.num_sites();
    for (std::size_t s = 0; s < S; ++s) {
      bound.opt_e += site_open_e_[s];
      bound.opt_c += site_open_c_[s];
    }
    return objective.scalar_terms(bound.exact_e + bound.opt_e, bound.exact_c + bound.opt_c);
  }

  /// Run the search from array index `start` on; homes of arrays before
  /// `start` must already be set on the engine (the static-split parallel
  /// tasks replay their root-frontier prefix that way, the serial search
  /// starts at 0).
  void run(std::size_t start) {
    Bound bound;
    bound.exact_c = engine.compute_cycles();
    const std::size_t S = engine.num_sites();
    for (std::size_t s = 0; s < S; ++s) {
      bound.opt_e += site_open_e_[s];
      bound.opt_c += site_open_c_[s];
    }
    for (std::size_t a = 0; a < start; ++a) {
      apply_home_to_bound(a, engine.home_of(a), bound);
    }
    recurse_arrays(start, bound);
  }

  /// Execute one work-stealing task: replay the canonical ordinal prefix
  /// onto this worker's engine, search the subtree under it, and unwind so
  /// the next task this worker claims starts from a pristine out-of-box
  /// engine.  A prefix inside the array phase rebuilds the root bound
  /// exactly as `run(0)` does; a prefix reaching the copy phase lets
  /// `enter_copy_phase_at` rebuild its own bound — either way replay needs
  /// nothing from the spawning worker beyond the ordinals.
  ///
  /// `states` and `budget_hit` accumulate across every task this worker
  /// runs, so `max_states` bounds each *worker*, not each task; once hit,
  /// later tasks return immediately and the run reports as truncated.
  void run_task(const std::vector<int>& prefix) {
    if (budget_hit) return;
    const auto& arrays = ctx.program.arrays();
    const std::size_t A = arrays.size();
    std::size_t homes = std::min(prefix.size(), A);
    for (std::size_t a = 0; a < homes; ++a) {
      cur_path_[a] = prefix[a];
      engine.set_home(a, home_ordinal_layer(a, prefix[a]));
    }
    if (prefix.size() < A) {
      Bound bound;
      bound.exact_c = engine.compute_cycles();
      const std::size_t S = engine.num_sites();
      for (std::size_t s = 0; s < S; ++s) {
        bound.opt_e += site_open_e_[s];
        bound.opt_c += site_open_c_[s];
      }
      for (std::size_t a = 0; a < homes; ++a) {
        apply_home_to_bound(a, engine.home_of(a), bound);
      }
      recurse_arrays(prefix.size(), bound);
    } else {
      enter_copy_phase_at(prefix.size() - A, prefix.data() + A);
    }
    // Blanket unwind: drop the replay's journal entries and rewind the
    // engine to out-of-box for the next task.
    restore_sites(0);
    engine.undo_to(0);
  }
};

/// A greedy run gives an *achievable* scalar, so pruning strictly above it
/// can only discard non-optimal subtrees: admissible bounds satisfy
/// lb <= optimum <= seed on any subtree holding an optimal state.  The seed
/// scalar rides in `shared_incumbent` — whose prune is strict — rather than
/// the local best, so tie states (scalar == seed) still enumerate and the
/// returned optimum is bit-identical to an unseeded search.  The full
/// greedy result is kept as the anytime fallback: if the budget expires
/// before the enumeration beats it, its assignment is the best answer.
/// The seed search itself observes the run budget, so a cancelled run
/// degrades all the way down.
GreedyResult greedy_incumbent_seed(const AssignContext& ctx, const ExhaustiveOptions& options,
                                   core::RunBudget* run_budget) {
  GreedyOptions greedy;
  greedy.energy_weight = options.energy_weight;
  greedy.time_weight = options.time_weight;
  greedy.allow_array_migration = options.allow_array_migration;
  greedy.shared_budget = run_budget;
  return greedy_assign(ctx, greedy);
}

ExhaustiveResult exhaustive_engine(const AssignContext& ctx, const ExhaustiveOptions& options,
                                   core::RunBudget* run_budget) {
  EngineSearch search(ctx, options);
  search.run_budget = run_budget;
  core::AtomicMin seed(search.best_scalar);
  GreedyResult fallback = greedy_incumbent_seed(ctx, options, run_budget);
  seed.update(fallback.final_scalar);
  search.shared_incumbent = &seed;
  double root_lb = search.root_scalar_bound();
  {
    obs::Span span("bnb_walk", "search");
    search.run(0);
  }

  ExhaustiveResult result;
  result.assignment = std::move(search.best);
  result.scalar = search.best_scalar;
  result.states_explored = search.states;
  result.bound_prunes = search.bound_prunes;
  result.capacity_prunes = search.capacity_prunes;
  finalize_anytime(result, ctx, search.budget_hit, root_lb, &fallback);
  return result;
}

/// A root-frontier task of the parallel search: the home layers of the
/// first `layers.size()` arrays, in declaration order.  Expanding the
/// array-home prefix tree breadth-first — prefixes in order, layers in the
/// serial branch order — keeps the task list in canonical DFS-subtree
/// order, which the tie-breaking reduction below relies on.
std::vector<std::vector<int>> split_root_frontier(const AssignContext& ctx,
                                                  const ExhaustiveOptions& options,
                                                  std::size_t target_tasks) {
  const auto& arrays = ctx.program.arrays();

  std::vector<std::vector<int>> frontier{{}};
  for (std::size_t depth = 0; depth < arrays.size() && frontier.size() < target_tasks; ++depth) {
    std::vector<std::vector<int>> next;
    next.reserve(frontier.size() * static_cast<std::size_t>(ctx.hierarchy.num_layers()));
    for (const std::vector<int>& prefix : frontier) {
      for_each_feasible_home(ctx, arrays[depth], options.allow_array_migration, [&](int layer) {
        std::vector<int> child = prefix;
        child.push_back(layer);
        next.push_back(std::move(child));
      });
    }
    frontier = std::move(next);
  }
  return frontier;
}

/// The original static split, kept behind `work_stealing = false` as the
/// comparison baseline: the root frontier is carved into a fixed task list
/// up front, so uneven subtrees idle workers that finished early.
ExhaustiveResult exhaustive_parallel_static(const AssignContext& ctx,
                                            const ExhaustiveOptions& options,
                                            core::RunBudget* run_budget) {
  // One prototype carries the engine precompute and the bound tables; every
  // task copies it instead of rebuilding them.  Its out-of-box incumbent is
  // also the serial search's starting incumbent.
  EngineSearch prototype(ctx, options);
  prototype.run_budget = run_budget;
  double root_lb = prototype.root_scalar_bound();

  ExhaustiveResult result;
  result.assignment = prototype.best;
  result.scalar = prototype.best_scalar;

  unsigned threads = options.num_threads ? options.num_threads : core::default_parallelism();
  std::size_t target_tasks = static_cast<std::size_t>(threads) * kStaticTasksPerThread;
  std::vector<std::vector<int>> tasks = split_root_frontier(ctx, options, target_tasks);
  // Unreachable while the background layer is unbounded (every array always
  // has at least one feasible home); kept as a cheap defense so a future
  // bounded-background hierarchy degrades to the serial no-leaves result.
  if (tasks.empty()) {
    finalize_anytime(result, ctx, /*budget_hit=*/false, root_lb, nullptr);
    return result;
  }

  // The shared incumbent starts at the out-of-box scalar and the greedy
  // scalar: both are costs of feasible assignments, so pruning
  // strictly above them never cuts an optimal state.  The seed is a bound
  // only — the returned assignment always comes from the enumeration, with
  // the greedy fallback substituted only on a budget-truncated run.
  core::AtomicMin incumbent(prototype.best_scalar);
  GreedyResult fallback = greedy_incumbent_seed(ctx, options, run_budget);
  incumbent.update(fallback.final_scalar);

  struct TaskOutcome {
    Assignment best;
    double scalar = 0.0;
    long states = 0;
    bool budget_hit = false;
    long bound_prunes = 0;
    long capacity_prunes = 0;
    bool ran = false;  ///< false when the budget expired before the task started
  };
  std::vector<TaskOutcome> outcomes(tasks.size());
  core::parallel_for(tasks.size(), threads, [&](std::size_t t) {
    obs::Span span("bnb_task", "search");
    EngineSearch search(prototype);
    search.shared_incumbent = &incumbent;
    for (std::size_t a = 0; a < tasks[t].size(); ++a) {
      search.engine.set_home(a, tasks[t][a]);
    }
    search.run(tasks[t].size());
    outcomes[t] = {std::move(search.best),      search.best_scalar,
                   search.states,               search.budget_hit,
                   search.bound_prunes,         search.capacity_prunes,
                   /*ran=*/true};
  }, run_budget);

  // Canonical-order reduction: strict improvement keeps the earliest task on
  // ties, exactly as the serial DFS keeps the first state it visits.  A task
  // the expired budget prevented from running leaves a default outcome that
  // must not win the reduction — it only marks the run truncated.
  bool budget_hit = false;
  for (TaskOutcome& outcome : outcomes) {
    if (!outcome.ran) {
      budget_hit = true;
      continue;
    }
    if (outcome.scalar < result.scalar) {
      result.scalar = outcome.scalar;
      result.assignment = std::move(outcome.best);
    }
    result.states_explored += outcome.states;
    budget_hit = budget_hit || outcome.budget_hit;
    result.bound_prunes += outcome.bound_prunes;
    result.capacity_prunes += outcome.capacity_prunes;
  }
  finalize_anytime(result, ctx, budget_hit, root_lb, &fallback);
  return result;
}

/// Work-stealing parallel search: one `EngineSearch` per pool worker
/// (lazily copied from the shared prototype), subtree tasks that split
/// themselves on demand — root homes first, then down into the copy phase —
/// whenever peers starve, a shared strictly-pruning incumbent, and a
/// (scalar, canonical-path) reduction over the per-worker bests that
/// returns exactly the serial `"bnb"` optimum for any thread count and any
/// steal interleaving (see the ws_mode notes on `EngineSearch`).
ExhaustiveResult exhaustive_parallel_ws(const AssignContext& ctx, const ExhaustiveOptions& options,
                                        core::RunBudget* run_budget) {
  EngineSearch prototype(ctx, options);
  prototype.run_budget = run_budget;
  double root_lb = prototype.root_scalar_bound();

  ExhaustiveResult result;
  result.assignment = prototype.best;
  result.scalar = prototype.best_scalar;

  // Both seeds are costs of feasible assignments, so strict pruning above
  // them never cuts an optimal state; the returned assignment always comes
  // from the enumeration (greedy substitutes only on a truncated run).
  core::AtomicMin incumbent(prototype.best_scalar);
  GreedyResult fallback = greedy_incumbent_seed(ctx, options, run_budget);
  incumbent.update(fallback.final_scalar);

  unsigned threads = options.num_threads ? options.num_threads : core::default_parallelism();
  core::WorkStealingPool pool(threads);

  const std::size_t path_len = ctx.program.arrays().size() + ctx.reuse.candidates().size();
  prototype.ws_mode = true;
  prototype.pool = &pool;
  prototype.shared_incumbent = &incumbent;
  prototype.cur_path_.assign(path_len, 0);
  prototype.best_path_.assign(path_len, 0);  // the out-of-box incumbent is the all-zero leaf

  // One search per worker, created on its first task so idle workers never
  // pay the engine copy; the search (and its engine) is reused for every
  // task that worker claims.
  std::vector<std::unique_ptr<EngineSearch>> workers(pool.num_workers());
  std::function<void(unsigned, const std::vector<int>&)> run_subtree =
      [&](unsigned w, const std::vector<int>& prefix) {
        obs::Span span("bnb_task", "search");
        if (!workers[w]) {
          workers[w] = std::make_unique<EngineSearch>(prototype);
          workers[w]->spawn_subtree = [&pool, &run_subtree, w](std::vector<int> child) {
            pool.spawn(w, [&run_subtree, child = std::move(child)](unsigned worker) {
              run_subtree(worker, child);
            });
          };
        }
        workers[w]->run_task(prefix);
      };
  pool.spawn(0, [&run_subtree](unsigned w) { run_subtree(w, std::vector<int>{}); });
  std::size_t skipped = pool.run(run_budget);

  // (scalar, canonical path) reduction over the per-worker searches: the
  // smallest scalar wins and path order breaks ties exactly as serial DFS
  // visit order would.  A null winner path stands for the all-zero
  // out-of-box path, which no other path can precede.  Tasks the expired
  // budget made the pool discard mark the run truncated.
  bool budget_hit = skipped > 0;
  const std::vector<int>* best_path = nullptr;
  for (const std::unique_ptr<EngineSearch>& worker : workers) {
    if (!worker) continue;
    result.states_explored += worker->states;
    result.bound_prunes += worker->bound_prunes;
    result.capacity_prunes += worker->capacity_prunes;
    budget_hit = budget_hit || worker->budget_hit;
    bool wins = worker->best_scalar < result.scalar ||
                (worker->best_scalar == result.scalar && best_path &&
                 worker->best_path_ < *best_path);
    if (wins) {
      result.scalar = worker->best_scalar;
      result.assignment = worker->best;
      best_path = &worker->best_path_;
    }
  }
  finalize_anytime(result, ctx, budget_hit, root_lb, &fallback);
  return result;
}

/// The guard throws only when there is nothing to bound the runtime: a
/// bounded run budget lifts it (anytime mode — the budget truncates the
/// search where the guard would have refused it).
void check_placement_guard(const AssignContext& ctx, bool anytime) {
  std::size_t placements = ctx.reuse.candidates().size() *
                           static_cast<std::size_t>(std::max(ctx.hierarchy.background(), 1));
  if (placements <= kEnginePlacementGuard || anytime) return;
  throw std::invalid_argument(
      "exhaustive_assign: instance too large (" + std::to_string(placements) +
      " candidate placements, guard " + std::to_string(kEnginePlacementGuard) +
      "); use greedy_assign, or attach a run budget (deadline/max_probes/cancel) "
      "for an anytime search");
}

/// Resolve the active budget token: the caller's shared token wins; else a
/// local one is built from the spec.  A local token is created even for an
/// unbounded spec so the fault injector's BudgetProbe site is always live.
core::RunBudget* resolve_budget(const ExhaustiveOptions& options,
                                std::optional<core::RunBudget>& local) {
  if (options.shared_budget) return options.shared_budget;
  local.emplace(options.budget);
  return &*local;
}

bool has_bounded_budget(const ExhaustiveOptions& options) {
  return options.shared_budget != nullptr || options.budget.bounded();
}

}  // namespace

ExhaustiveResult exhaustive_assign(const AssignContext& ctx, const ExhaustiveOptions& options) {
  check_placement_guard(ctx, has_bounded_budget(options));
  std::optional<core::RunBudget> local;
  return exhaustive_engine(ctx, options, resolve_budget(options, local));
}

ExhaustiveResult exhaustive_parallel_assign(const AssignContext& ctx,
                                            const ExhaustiveOptions& options) {
  check_placement_guard(ctx, has_bounded_budget(options));
  std::optional<core::RunBudget> local;
  core::RunBudget* budget = resolve_budget(options, local);
  return options.work_stealing ? exhaustive_parallel_ws(ctx, options, budget)
                               : exhaustive_parallel_static(ctx, options, budget);
}

}  // namespace mhla::assign
