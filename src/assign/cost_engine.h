#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "assign/cost.h"
#include "assign/footprint_tracker.h"
#include "core/arena.h"
#include "core/span.h"

namespace mhla::assign {

/// Incremental cost evaluator for the MHLA searches.
///
/// A from-scratch evaluation pays a full `resolve()` (O(sites x copies) with
/// string map lookups), a complete IR statement walk for the
/// assignment-independent compute cycles, and a pass over every access site
/// — for *every* candidate state a search scores.  The engine precomputes
/// every assignment-independent term once per `AssignContext`:
///
///  * total compute cycles (one IR walk at construction),
///  * per-site access counts and the energy/latency term for every possible
///    serving layer,
///  * per-candidate transfer terms for every (source, destination) layer pair,
///  * per-array pinned fill/flush terms for every possible home layer,
///  * the site -> covering-candidate and candidate -> ancestor maps that
///    `resolve()` rederives from scratch each call,
///
/// and then maintains the resolution (serving layer per site, parent store
/// per selected copy) incrementally under `select_copy` / `remove_copy` /
/// `migrate_array` moves, each undoable in LIFO order via checkpoints.
/// Applying or undoing a move costs O(sites covered by the touched candidate)
/// — O(changed sites + changed transfers), not O(program).
///
/// ## Data layout
///
/// The hot paths are allocation-free in steady state and string-free
/// throughout: array and candidate names are interned into dense integer ids
/// at construction (the string overloads of `set_home` / `migrate_array` are
/// setup-time shims that validate and forward to the id overloads), the
/// site -> covering and candidate -> sites/ancestors maps are flattened into
/// contiguous offset-indexed arrays (accessors return `core::IntSpan` views),
/// and the undo journal lives in a reserve-once `core::ArenaStack` that
/// rewinding never returns to the heap.
///
/// ## Exactness contract
///
/// `totals()` / `scalar()` are **bit-identical** to `oracles::estimate_cost`
/// (tests/oracles/), the from-scratch reference that `sim::simulate` must
/// also match, evaluated on `assignment()` (and to `oracles::scalar` of
/// it): the engine caches the very term values the from-scratch path
/// computes and re-accumulates them in the same canonical order (sites in
/// id order, then transfers in copy-selection order, then pinned arrays in
/// declaration order).  Floating-point summation order is part of the
/// contract; searches built on the engine make exactly the decisions the
/// from-scratch searches make.  The scalar read is O(sites + copies) cached
/// additions; the expensive parts (resolution, model lookups, IR walks,
/// allocation) are all precomputed or maintained incrementally.
///
/// The engine's assignment must not hold duplicate copy-candidate entries
/// (`load` throws std::invalid_argument; searches never create duplicates).
class CostEngine {
 public:
  explicit CostEngine(const AssignContext& ctx);

  /// Full (re)load of an assignment: one O(sites x covering) resolution.
  /// Clears the undo history.
  void load(const Assignment& assignment);

  /// The live assignment the engine mirrors.  Mutated in place by the move
  /// methods; copy it if you need a snapshot.  The `array_layer` map is
  /// synced lazily on read (home moves only touch the dense id-indexed
  /// table); `placed_copies()` is the map-free hot-path view.
  const Assignment& assignment() const {
    if (assignment_dirty_) sync_assignment();
    return assignment_;
  }

  /// The live placed-copy list, in selection order — the same vector
  /// `assignment().copies` exposes, without triggering the array_layer sync.
  const std::vector<PlacedCopy>& placed_copies() const { return assignment_.copies; }

  const AssignContext& context() const { return ctx_; }

  // -------------------------------------------------------------- moves
  /// A checkpoint marks a point in the undo history; `undo_to` rewinds to
  /// it.  Checkpoints nest (LIFO): rewind to an older checkpoint undoes
  /// everything after it, compound moves included.
  using Checkpoint = std::size_t;
  Checkpoint checkpoint() const { return undo_.size(); }
  void undo_to(Checkpoint mark);

  /// Select candidate `cc_id` on `layer`.  Throws std::invalid_argument on
  /// unknown ids/layers or if the candidate is already selected (mirrors
  /// `resolve()`'s validation).
  void select_copy(int cc_id, int layer);

  /// Deselect candidate `cc_id` (must be selected).
  void remove_copy(int cc_id);

  /// Move the array's home to `layer` and drop every copy the new home makes
  /// layering-invalid, exactly like `drop_invalid_copies`.  Returns the
  /// number of copies dropped.  The whole compound move rewinds as one unit
  /// via a checkpoint taken before the call.
  ///
  /// The id overload is the hot path (debug-asserted arguments only); the
  /// string overload validates and forwards — setup-time convenience.
  int migrate_array(std::size_t array_index, int layer);
  int migrate_array(const std::string& array, int layer);

  /// Primitive home change without the invalid-copy sweep (exhaustive
  /// enumeration sets homes before any copy exists).  Same id/string split
  /// as `migrate_array`.
  void set_home(std::size_t array_index, int layer);
  void set_home(const std::string& array, int layer);

  /// Dense id of a declared array name (throws std::invalid_argument on
  /// unknown names).  Intern once at setup; move with the id overloads.
  std::size_t array_id(const std::string& name) const { return array_index(name); }
  std::size_t num_arrays() const { return array_names_.size(); }

  // ------------------------------------------------------------ queries
  bool has_copy(int cc_id) const { return copy_layer_[static_cast<std::size_t>(cc_id)] >= 0; }
  int copy_layer(int cc_id) const { return copy_layer_[static_cast<std::size_t>(cc_id)]; }
  int home_of(std::size_t array_index) const { return home_[array_index]; }

  /// Layer serving access site `site` under the current assignment
  /// (== resolve().site_layer[site]).
  int serving_layer(std::size_t site) const {
    int cc = serving_cc_[site];
    return cc >= 0 ? copy_layer_[static_cast<std::size_t>(cc)] : home_[site_array_[site]];
  }

  /// Parent-store layer of candidate `cc_id` (deepest selected ancestor, or
  /// the array's home layer) under the current assignment.
  int parent_layer(int cc_id) const;

  /// True iff every selected copy sits strictly closer to the processor than
  /// its parent store.  O(copies x chain depth), no resolve.
  bool layering_valid() const;

  /// O(1) feasibility of the live assignment — exactly
  /// `fits(ctx, assignment())`, answered from the composed FootprintTracker
  /// (maintained in lockstep with every move and undo).
  bool fits() const { return footprint_.feasible(); }

  /// The composed tracker, for searches that need the usage matrix itself
  /// (the branch-and-bound capacity pruning reads single cells).
  const FootprintTracker& footprint() const { return footprint_; }

  // --------------------------------------------------------- evaluation
  /// The scalar-relevant accumulators of an evaluation (no allocation on
  /// the hot path).
  struct Totals {
    double energy_nj = 0.0;
    double compute_cycles = 0.0;
    double access_cycles = 0.0;
    double transfer_cycles = 0.0;
    double total_cycles() const { return compute_cycles + access_cycles + transfer_cycles; }
  };

  /// Bit-identical to the double fields of the reference estimate of
  /// `assignment()` (see the exactness contract above).
  Totals totals() const;

  /// Bit-identical to `objective.scalar_terms` of `totals()`.
  double scalar(const Objective& objective) const {
    Totals t = totals();
    return objective.scalar_terms(t.energy_nj, t.total_cycles());
  }

  /// Batched scoring of one round of select-copy moves.  For each slot `m`,
  /// decides whether selecting candidate `cc_ids[m]` on `layers[m]` keeps
  /// the assignment feasible *and* layering-valid (`ok[m]`), and when it
  /// does, computes the post-move objective scalar into `scalars[m]` —
  /// bit-identical, slot for slot, to the sequential
  /// `checkpoint / select_copy / fits() && layering_valid() / scalar() /
  /// undo_to` cycle.
  ///
  /// One site-major pass over the contiguous term tables scores every slot:
  /// each slot's accumulators receive exactly the additions `totals()` would
  /// perform after the move, in the same canonical order (sites in id order,
  /// then transfers in copy order with the new copy last, then pinned arrays
  /// in declaration order), so the floating-point results match the
  /// sequential path bit for bit.
  ///
  /// Preconditions (the searches' standing invariants): every `cc_ids[m]` is
  /// a currently unselected candidate, and the live assignment is
  /// layering-valid.  The engine state is never touched; internal scratch is
  /// reused across calls, so steady-state calls are allocation-free.
  void score_select_candidates(const Objective& objective, const int* cc_ids, const int* layers,
                               std::size_t count, double* scalars, unsigned char* ok) const;

  // ------------------------------------------- precomputed term accessors
  // Exposed for the branch-and-bound lower bound in exhaustive_assign: the
  // bound is built from the same cached terms the evaluation uses, so it is
  // admissible by construction.
  std::size_t num_sites() const { return site_n_.size(); }
  std::size_t num_candidates() const { return cc_level_.size(); }
  double compute_cycles() const { return compute_cycles_; }

  /// n * access_energy / n * access_latency of `site` if served by `layer`.
  double site_energy_term(std::size_t site, int layer) const {
    return site_energy_[site * static_cast<std::size_t>(num_layers_) +
                        static_cast<std::size_t>(layer)];
  }
  double site_cycle_term(std::size_t site, int layer) const {
    return site_cycles_[site * static_cast<std::size_t>(num_layers_) +
                        static_cast<std::size_t>(layer)];
  }

  /// Candidate ids covering `site`, deepest (highest level) first.
  core::IntSpan covering(std::size_t site) const {
    const int* base = covering_items_.data();
    return {base + covering_off_[site], base + covering_off_[site + 1]};
  }

  /// Member site ids of candidate `cc_id` (the sites whose serving layer a
  /// selection of the candidate can change).
  core::IntSpan candidate_sites(int cc_id) const {
    std::size_t c = static_cast<std::size_t>(cc_id);
    const int* base = cc_sites_items_.data();
    return {base + cc_sites_off_[c], base + cc_sites_off_[c + 1]};
  }

  /// Suffix minima over undecided candidates, for bound tightening in the
  /// branch-and-bound searches.  With candidates decided in id order,
  /// `site_suffix_energy(s, j)` is the cheapest energy term any *undecided*
  /// candidate (id >= j) covering `s` could still give the site — the min
  /// over those candidates and every on-chip layer each individually fits —
  /// or +infinity once no covering candidate remains open.  Together with
  /// the site's current serving term this bounds the site's final term from
  /// below (admissibly: the final serving layer is either the current one or
  /// one offered by an undecided covering candidate).
  double site_suffix_energy(std::size_t site, std::size_t next_cc) const {
    return site_suffix_e_[site * (num_candidates() + 1) + next_cc];
  }
  double site_suffix_cycles(std::size_t site, std::size_t next_cc) const {
    return site_suffix_c_[site * (num_candidates() + 1) + next_cc];
  }

  /// Energy / blocking-cycle contribution of selecting `cc_id` with parent
  /// store `src` and own layer `dst` (fill + write-back as applicable).
  double cc_energy_term(int cc_id, int src, int dst) const;
  double cc_cycle_term(int cc_id, int src, int dst) const;

  /// Pinned fill/flush (energy, cycles) totals for the current array homes.
  std::pair<double, double> pinned_totals() const;

  /// Index of the array access site `site` belongs to.
  std::size_t site_array(std::size_t site) const { return site_array_[site]; }

  /// Pinned fill+flush contribution of homing array `array` on `home`
  /// (zero for the background home) — the per-array terms `pinned_totals`
  /// sums for the current homes.
  double pinned_energy_term(std::size_t array, int home) const;
  double pinned_cycle_term(std::size_t array, int home) const;

 private:
  struct UndoRec {
    enum class Kind { Serving, CopyPush, CopyErase, Home };
    Kind kind;
    int a = 0;  ///< Serving: site     CopyPush/CopyErase: cc_id  Home: array idx
    int b = 0;  ///< Serving: old cc   CopyErase: layer           Home: old layer
    int c = 0;  ///< CopyErase: index in copies
  };

  std::size_t table_index(int cc_id, int src, int dst) const {
    return (static_cast<std::size_t>(cc_id) * static_cast<std::size_t>(num_layers_) +
            static_cast<std::size_t>(src)) *
               static_cast<std::size_t>(num_layers_) +
           static_cast<std::size_t>(dst);
  }

  core::IntSpan ancestors(int cc_id) const {
    std::size_t c = static_cast<std::size_t>(cc_id);
    const int* base = cc_anc_items_.data();
    return {base + cc_anc_off_[c], base + cc_anc_off_[c + 1]};
  }

  void set_serving(std::size_t site, int cc_id);
  void validate_copy(int cc_id, int layer) const;
  std::size_t array_index(const std::string& name) const;
  /// Replay every home change since load into assignment_.array_layer —
  /// writes exactly the entries the eager per-move map writes produced.
  void sync_assignment() const;

  const AssignContext& ctx_;
  int num_layers_ = 0;
  int background_ = 0;

  // ---- assignment-independent precomputation
  double compute_cycles_ = 0.0;
  std::vector<i64> site_n_;            ///< dynamic accesses per site
  std::vector<std::size_t> site_array_;  ///< site -> array index
  std::vector<double> site_energy_;    ///< [site][layer]
  std::vector<double> site_cycles_;    ///< [site][layer]
  std::vector<int> covering_items_;          ///< site -> cc ids, level desc (CSR)
  std::vector<std::size_t> covering_off_;    ///< size sites + 1
  std::vector<int> cc_level_;
  std::vector<bool> cc_fill_free_;
  std::vector<bool> cc_write_back_;
  std::vector<int> cc_sites_items_;          ///< cc -> member site ids (CSR)
  std::vector<std::size_t> cc_sites_off_;    ///< size candidates + 1
  std::vector<int> cc_anc_items_;            ///< cc -> ancestor ids, level desc (CSR)
  std::vector<std::size_t> cc_anc_off_;      ///< size candidates + 1
  std::vector<std::size_t> cc_array_;          ///< cc -> array index
  std::vector<double> fill_energy_;    ///< [cc][src][dst]
  std::vector<double> wb_energy_;      ///< [cc][src][dst]
  std::vector<double> xfer_cycles_;    ///< [cc][src][dst] (per direction)
  std::vector<double> site_suffix_e_;  ///< [site][next_cc] suffix minima
  std::vector<double> site_suffix_c_;  ///< [site][next_cc]
  std::vector<std::string> array_names_;          ///< array index -> name
  std::map<std::string, std::size_t> array_index_;  ///< setup-time interning only
  std::vector<bool> array_input_;
  std::vector<bool> array_output_;
  std::vector<double> pin_fill_energy_;   ///< [array][home]
  std::vector<double> pin_fill_cycles_;   ///< [array][home]
  std::vector<double> pin_flush_energy_;  ///< [array][home]
  std::vector<double> pin_flush_cycles_;  ///< [array][home]

  // ---- incremental state
  /// The copies vector is maintained eagerly (selection order is the
  /// canonical transfer order); array_layer is synced lazily from home_ on
  /// `assignment()` reads, hence mutable together with the dirty flag.
  mutable Assignment assignment_;
  mutable bool assignment_dirty_ = false;
  std::vector<char> home_touched_;      ///< array changed home since load()
  std::vector<int> home_touched_list_;
  std::vector<int> copy_layer_;   ///< cc -> layer or -1
  std::vector<int> serving_cc_;   ///< site -> deepest selected covering cc or -1
  std::vector<int> home_;         ///< array index -> home layer
  core::ArenaStack<UndoRec> undo_;
  std::vector<int> offenders_;    ///< migrate_array fixpoint scratch
  FootprintTracker footprint_;    ///< usage matrix, mirrored move for move

  // ---- batched-scoring scratch (sized once at construction, reused per
  // call; mutable because scoring is logically const)
  mutable std::vector<int> scr_stamp_;            ///< cc -> site currently marking it affected
  mutable std::vector<int> scr_desc_max_;         ///< cc -> deepest displaced-copy layer
  mutable std::vector<int> scr_parent_;           ///< placed-copy slot -> current parent layer
  mutable std::vector<unsigned char> scr_displaces_;  ///< [cc][placed-copy slot]
  mutable std::vector<double> scr_e_;             ///< per-slot energy accumulator
  mutable std::vector<double> scr_ac_;            ///< per-slot access-cycle accumulator
  mutable std::vector<double> scr_pin_e_;         ///< active pinned terms, declaration order
  mutable std::vector<double> scr_pin_c_;
};

/// The search objective with `energy_weight` and `time_weight`, normalized
/// against `engine`'s live totals.  A freshly constructed engine holds the
/// out-of-box assignment, so the searches call this right after
/// construction and get the out-of-box baseline without a second
/// evaluation.
Objective make_objective(const CostEngine& engine, double energy_weight, double time_weight);

}  // namespace mhla::assign
