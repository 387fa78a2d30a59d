#include "assign/cost_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "ir/walk.h"

namespace mhla::assign {

namespace {

/// Flatten a jagged row collection into CSR form: one contiguous item array
/// plus a size+1 offset array.  Construction-time only.
void flatten_rows(const std::vector<std::vector<int>>& rows, std::vector<int>& items,
                  std::vector<std::size_t>& offsets) {
  offsets.assign(rows.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    total += rows[r].size();
    offsets[r + 1] = total;
  }
  items.clear();
  items.reserve(total);
  for (const std::vector<int>& row : rows) {
    items.insert(items.end(), row.begin(), row.end());
  }
}

}  // namespace

CostEngine::CostEngine(const AssignContext& ctx)
    : ctx_(ctx),
      num_layers_(ctx.hierarchy.num_layers()),
      background_(ctx.hierarchy.background()),
      footprint_(ctx) {
  const std::size_t L = static_cast<std::size_t>(num_layers_);

  // Assignment-independent compute cycles: one IR walk, accumulated exactly
  // like the from-scratch reference so the cached value is bit-identical.
  ir::walk_statements(ctx_.program,
                      [&](int /*nest*/, const ir::LoopPath& path, const ir::StmtNode& stmt) {
                        compute_cycles_ += static_cast<double>(ir::iterations_of(path)) *
                                           static_cast<double>(stmt.op_cycles());
                      });

  // Array catalog.
  const auto& arrays = ctx_.program.arrays();
  array_input_.resize(arrays.size());
  array_output_.resize(arrays.size());
  pin_fill_energy_.assign(arrays.size() * L, 0.0);
  pin_fill_cycles_.assign(arrays.size() * L, 0.0);
  pin_flush_energy_.assign(arrays.size() * L, 0.0);
  pin_flush_cycles_.assign(arrays.size() * L, 0.0);
  const mem::MemLayer& bg = ctx_.hierarchy.layer(background_);
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    array_names_.push_back(arrays[a].name);
    array_index_.emplace(arrays[a].name, a);
    array_input_[a] = arrays[a].is_input;
    array_output_[a] = arrays[a].is_output;
    double elems = static_cast<double>(arrays[a].elems());
    for (int home = 0; home < background_; ++home) {
      const mem::MemLayer& hl = ctx_.hierarchy.layer(home);
      std::size_t idx = a * L + static_cast<std::size_t>(home);
      pin_fill_energy_[idx] = elems * (bg.access_energy_nj(false) + hl.access_energy_nj(true));
      pin_fill_cycles_[idx] = mem::blocking_transfer_cycles(arrays[a].bytes(), bg, hl, ctx_.dma);
      pin_flush_energy_[idx] = elems * (hl.access_energy_nj(false) + bg.access_energy_nj(true));
      pin_flush_cycles_[idx] = mem::blocking_transfer_cycles(arrays[a].bytes(), hl, bg, ctx_.dma);
    }
  }

  // Per-site terms for every possible serving layer.
  const std::size_t S = ctx_.sites.size();
  site_n_.resize(S);
  site_array_.resize(S);
  site_energy_.assign(S * L, 0.0);
  site_cycles_.assign(S * L, 0.0);
  std::vector<std::vector<int>> covering(S);
  for (const analysis::AccessSite& site : ctx_.sites) {
    std::size_t s = static_cast<std::size_t>(site.id);
    i64 n = site.dynamic_accesses();
    bool is_write = site.is_write();
    site_n_[s] = n;
    site_array_[s] = array_index(site.access->array);
    for (int l = 0; l < num_layers_; ++l) {
      const mem::MemLayer& layer = ctx_.hierarchy.layer(l);
      site_energy_[s * L + static_cast<std::size_t>(l)] =
          static_cast<double>(n) * layer.access_energy_nj(is_write);
      site_cycles_[s * L + static_cast<std::size_t>(l)] =
          static_cast<double>(n) * layer.access_latency(is_write);
    }
  }

  // Per-candidate structure and transfer terms for every layer pair.  The
  // jagged covering / member-site / ancestor rows are built locally and
  // flattened into CSR arrays once sorted.
  const auto& candidates = ctx_.reuse.candidates();
  const std::size_t C = candidates.size();
  cc_level_.resize(C);
  cc_fill_free_.resize(C);
  cc_write_back_.resize(C);
  cc_array_.resize(C);
  std::vector<std::vector<int>> cc_sites(C);
  std::vector<std::vector<int>> cc_ancestors(C);
  fill_energy_.assign(C * L * L, 0.0);
  wb_energy_.assign(C * L * L, 0.0);
  xfer_cycles_.assign(C * L * L, 0.0);
  for (const analysis::CopyCandidate& cc : candidates) {
    std::size_t c = static_cast<std::size_t>(cc.id);
    cc_level_[c] = cc.level;
    cc_fill_free_[c] = cc.fill_free;
    cc_write_back_[c] = cc.has_writes();
    cc_array_[c] = array_index(cc.array);
    double fills = static_cast<double>(cc.transfers * cc.elems_per_transfer);
    for (int src = 0; src < num_layers_; ++src) {
      const mem::MemLayer& sl = ctx_.hierarchy.layer(src);
      for (int dst = 0; dst < num_layers_; ++dst) {
        const mem::MemLayer& dl = ctx_.hierarchy.layer(dst);
        std::size_t idx = table_index(cc.id, src, dst);
        double per_issue = mem::blocking_transfer_cycles(cc.bytes_per_transfer(), sl, dl, ctx_.dma);
        fill_energy_[idx] = fills * (sl.access_energy_nj(false) + dl.access_energy_nj(true));
        wb_energy_[idx] = fills * (dl.access_energy_nj(false) + sl.access_energy_nj(true));
        xfer_cycles_[idx] = static_cast<double>(cc.transfers) * per_issue;
      }
    }
    for (const analysis::AccessSite& site : ctx_.sites) {
      if (cc_covers_site(cc, site)) {
        cc_sites[c].push_back(site.id);
        covering[static_cast<std::size_t>(site.id)].push_back(cc.id);
      }
    }
    for (const analysis::CopyCandidate& other : candidates) {
      if (cc_is_ancestor(other, cc)) cc_ancestors[c].push_back(other.id);
    }
    std::sort(cc_ancestors[c].begin(), cc_ancestors[c].end(),
              [&](int a, int b) { return candidates[static_cast<std::size_t>(a)].level >
                                         candidates[static_cast<std::size_t>(b)].level; });
  }
  for (std::vector<int>& cov : covering) {
    std::sort(cov.begin(), cov.end(), [&](int a, int b) {
      return candidates[static_cast<std::size_t>(a)].level >
             candidates[static_cast<std::size_t>(b)].level;
    });
  }

  // Suffix minima for the branch-and-bound bound: column C is "no candidate
  // left" (+inf); walking candidate ids downward folds in the cheapest term
  // candidate j could still give each of its member sites.
  const double inf = std::numeric_limits<double>::infinity();
  site_suffix_e_.assign(S * (C + 1), inf);
  site_suffix_c_.assign(S * (C + 1), inf);
  for (std::size_t c = C; c-- > 0;) {
    for (std::size_t s = 0; s < S; ++s) {
      site_suffix_e_[s * (C + 1) + c] = site_suffix_e_[s * (C + 1) + c + 1];
      site_suffix_c_[s * (C + 1) + c] = site_suffix_c_[s * (C + 1) + c + 1];
    }
    const analysis::CopyCandidate& cc = candidates[c];
    for (int layer = 0; layer < background_; ++layer) {
      const mem::MemLayer& target = ctx_.hierarchy.layer(layer);
      if (!target.unbounded() && cc.bytes > target.capacity_bytes) continue;
      for (int site : cc_sites[c]) {
        std::size_t s = static_cast<std::size_t>(site);
        site_suffix_e_[s * (C + 1) + c] =
            std::min(site_suffix_e_[s * (C + 1) + c], site_energy_term(s, layer));
        site_suffix_c_[s * (C + 1) + c] =
            std::min(site_suffix_c_[s * (C + 1) + c], site_cycle_term(s, layer));
      }
    }
  }

  flatten_rows(covering, covering_items_, covering_off_);
  flatten_rows(cc_sites, cc_sites_items_, cc_sites_off_);
  flatten_rows(cc_ancestors, cc_anc_items_, cc_anc_off_);

  // Steady-state allocation discipline: size the undo arena for a deep
  // speculative excursion plus a healthy accepted-move history, and every
  // scratch vector for its worst case, so the moves and the batched scorer
  // never touch the heap after this point (ArenaStack regrows — counted —
  // if a walk outruns the reservation).
  undo_.reserve(64 + S + 4 * C + 2 * arrays.size());
  offenders_.reserve(C);
  home_touched_list_.reserve(arrays.size());
  scr_stamp_.reserve(C);
  scr_desc_max_.reserve(C);
  scr_parent_.reserve(C);
  scr_displaces_.reserve(C * C);
  scr_e_.reserve(C * L);
  scr_ac_.reserve(C * L);
  scr_pin_e_.reserve(2 * arrays.size());
  scr_pin_c_.reserve(2 * arrays.size());

  load(out_of_box(ctx_));
}

std::size_t CostEngine::array_index(const std::string& name) const {
  auto it = array_index_.find(name);
  if (it == array_index_.end()) {
    throw std::invalid_argument("CostEngine: unknown array " + name);
  }
  return it->second;
}

void CostEngine::validate_copy(int cc_id, int layer) const {
  if (cc_id < 0 || static_cast<std::size_t>(cc_id) >= copy_layer_.size()) {
    throw std::invalid_argument("CostEngine: unknown copy candidate id " + std::to_string(cc_id));
  }
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("CostEngine: copy placed on unknown layer " +
                                std::to_string(layer));
  }
}

void CostEngine::load(const Assignment& assignment) {
  undo_.clear();
  copy_layer_.assign(ctx_.reuse.candidates().size(), -1);
  for (const PlacedCopy& pc : assignment.copies) {
    validate_copy(pc.cc_id, pc.layer);
    if (copy_layer_[static_cast<std::size_t>(pc.cc_id)] >= 0) {
      throw std::invalid_argument("CostEngine: duplicate copy candidate " +
                                  std::to_string(pc.cc_id));
    }
    copy_layer_[static_cast<std::size_t>(pc.cc_id)] = pc.layer;
  }
  assignment_ = assignment;
  // Every candidate can be placed at most once, so reserving C slots makes
  // select_copy's push_back (and undo's re-insert) allocation-free for good.
  assignment_.copies.reserve(copy_layer_.size());
  assignment_dirty_ = false;
  home_touched_.assign(array_names_.size(), 0);
  home_touched_list_.clear();

  home_.resize(array_names_.size());
  for (std::size_t a = 0; a < array_names_.size(); ++a) {
    home_[a] = assignment_.layer_of(array_names_[a], background_);
  }

  serving_cc_.assign(site_n_.size(), -1);
  for (std::size_t s = 0; s < serving_cc_.size(); ++s) {
    for (int cc : covering(s)) {
      if (copy_layer_[static_cast<std::size_t>(cc)] >= 0) {
        serving_cc_[s] = cc;  // covering is level-descending: first hit is deepest
        break;
      }
    }
  }

  footprint_.load(assignment_);
}

void CostEngine::sync_assignment() const {
  for (int a : home_touched_list_) {
    std::size_t idx = static_cast<std::size_t>(a);
    assignment_.array_layer[array_names_[idx]] = home_[idx];
  }
  assignment_dirty_ = false;
}

void CostEngine::set_serving(std::size_t site, int cc_id) {
  undo_.push_back({UndoRec::Kind::Serving, static_cast<int>(site), serving_cc_[site], 0});
  serving_cc_[site] = cc_id;
}

void CostEngine::select_copy(int cc_id, int layer) {
  validate_copy(cc_id, layer);
  std::size_t c = static_cast<std::size_t>(cc_id);
  if (copy_layer_[c] >= 0) {
    throw std::invalid_argument("CostEngine: candidate already selected " + std::to_string(cc_id));
  }
  copy_layer_[c] = layer;
  assignment_.copies.push_back({cc_id, layer});
  undo_.push_back({UndoRec::Kind::CopyPush, cc_id, 0, 0});
  footprint_.place_copy(cc_id, layer);
  for (int site : candidate_sites(cc_id)) {
    std::size_t s = static_cast<std::size_t>(site);
    int cur = serving_cc_[s];
    if (cur < 0 || cc_level_[static_cast<std::size_t>(cur)] < cc_level_[c]) {
      set_serving(s, cc_id);
    }
  }
}

void CostEngine::remove_copy(int cc_id) {
  std::size_t c = static_cast<std::size_t>(cc_id);
  if (cc_id < 0 || c >= copy_layer_.size() || copy_layer_[c] < 0) {
    throw std::invalid_argument("CostEngine: candidate not selected " + std::to_string(cc_id));
  }
  int index = -1;
  for (std::size_t i = 0; i < assignment_.copies.size(); ++i) {
    if (assignment_.copies[i].cc_id == cc_id) {
      index = static_cast<int>(i);
      break;
    }
  }
  undo_.push_back({UndoRec::Kind::CopyErase, cc_id, copy_layer_[c], index});
  assignment_.copies.erase(assignment_.copies.begin() + index);
  copy_layer_[c] = -1;
  footprint_.remove_copy(cc_id);
  for (int site : candidate_sites(cc_id)) {
    std::size_t s = static_cast<std::size_t>(site);
    if (serving_cc_[s] != cc_id) continue;
    int replacement = -1;
    for (int other : covering(s)) {
      if (copy_layer_[static_cast<std::size_t>(other)] >= 0) {
        replacement = other;
        break;
      }
    }
    set_serving(s, replacement);
  }
}

void CostEngine::set_home(std::size_t array_index, int layer) {
  assert(array_index < home_.size() && "CostEngine: unknown array id");
  assert(layer >= 0 && layer < num_layers_ && "CostEngine: home on unknown layer");
  if (home_[array_index] == layer) return;
  undo_.push_back({UndoRec::Kind::Home, static_cast<int>(array_index), home_[array_index], 0});
  home_[array_index] = layer;
  if (!home_touched_[array_index]) {
    home_touched_[array_index] = 1;
    home_touched_list_.push_back(static_cast<int>(array_index));
  }
  assignment_dirty_ = true;
  footprint_.set_home(array_index, layer);
}

void CostEngine::set_home(const std::string& array, int layer) {
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("CostEngine: home on unknown layer " + std::to_string(layer));
  }
  set_home(array_index(array), layer);
}

int CostEngine::migrate_array(std::size_t array_index, int layer) {
  set_home(array_index, layer);
  // Same fixpoint as drop_invalid_copies: offenders of one pass are computed
  // against the state entering the pass, then removed together.
  int dropped = 0;
  for (;;) {
    offenders_.clear();
    for (const PlacedCopy& pc : assignment_.copies) {
      if (pc.layer >= parent_layer(pc.cc_id)) offenders_.push_back(pc.cc_id);
    }
    if (offenders_.empty()) break;
    for (int cc : offenders_) remove_copy(cc);
    dropped += static_cast<int>(offenders_.size());
  }
  return dropped;
}

int CostEngine::migrate_array(const std::string& array, int layer) {
  if (layer < 0 || layer >= num_layers_) {
    throw std::invalid_argument("CostEngine: home on unknown layer " + std::to_string(layer));
  }
  return migrate_array(array_index(array), layer);
}

void CostEngine::undo_to(Checkpoint mark) {
  while (undo_.size() > mark) {
    const UndoRec rec = undo_.back();
    undo_.pop_back();
    switch (rec.kind) {
      case UndoRec::Kind::Serving:
        serving_cc_[static_cast<std::size_t>(rec.a)] = rec.b;
        break;
      case UndoRec::Kind::CopyPush:
        assignment_.copies.pop_back();
        copy_layer_[static_cast<std::size_t>(rec.a)] = -1;
        footprint_.undo_one();
        break;
      case UndoRec::Kind::CopyErase:
        assignment_.copies.insert(assignment_.copies.begin() + rec.c, {rec.a, rec.b});
        copy_layer_[static_cast<std::size_t>(rec.a)] = rec.b;
        footprint_.undo_one();
        break;
      case UndoRec::Kind::Home:
        home_[static_cast<std::size_t>(rec.a)] = rec.b;
        assignment_dirty_ = true;
        footprint_.undo_one();
        break;
    }
  }
}

int CostEngine::parent_layer(int cc_id) const {
  std::size_t c = static_cast<std::size_t>(cc_id);
  for (int anc : ancestors(cc_id)) {
    int layer = copy_layer_[static_cast<std::size_t>(anc)];
    if (layer >= 0) return layer;  // ancestors are level-descending: deepest first
  }
  return home_[cc_array_[c]];
}

bool CostEngine::layering_valid() const {
  for (const PlacedCopy& pc : assignment_.copies) {
    if (pc.layer >= parent_layer(pc.cc_id)) return false;
  }
  return true;
}

CostEngine::Totals CostEngine::totals() const {
  // Accumulation mirrors the from-scratch reference term by term and in the
  // same order: sites in id order, transfers in copy-selection order,
  // pinned arrays in declaration order.  Identical doubles in, identical
  // order, identical out.
  Totals t;
  t.compute_cycles = compute_cycles_;
  const std::size_t L = static_cast<std::size_t>(num_layers_);
  for (std::size_t s = 0; s < site_n_.size(); ++s) {
    std::size_t l = static_cast<std::size_t>(serving_layer(s));
    t.energy_nj += site_energy_[s * L + l];
    t.access_cycles += site_cycles_[s * L + l];
  }
  for (const PlacedCopy& pc : assignment_.copies) {
    std::size_t c = static_cast<std::size_t>(pc.cc_id);
    std::size_t idx = table_index(pc.cc_id, parent_layer(pc.cc_id), pc.layer);
    if (!cc_fill_free_[c]) {
      t.energy_nj += fill_energy_[idx];
      t.transfer_cycles += xfer_cycles_[idx];
    }
    if (cc_write_back_[c]) {
      t.energy_nj += wb_energy_[idx];
      t.transfer_cycles += xfer_cycles_[idx];
    }
  }
  const std::size_t Lp = static_cast<std::size_t>(num_layers_);
  for (std::size_t a = 0; a < array_names_.size(); ++a) {
    int home = home_[a];
    if (home == background_) continue;
    std::size_t idx = a * Lp + static_cast<std::size_t>(home);
    if (array_input_[a]) {
      t.energy_nj += pin_fill_energy_[idx];
      t.transfer_cycles += pin_fill_cycles_[idx];
    }
    if (array_output_[a]) {
      t.energy_nj += pin_flush_energy_[idx];
      t.transfer_cycles += pin_flush_cycles_[idx];
    }
  }
  return t;
}

void CostEngine::score_select_candidates(const Objective& objective, const int* cc_ids,
                                         const int* layers, std::size_t count, double* scalars,
                                         unsigned char* ok) const {
  const std::size_t C = cc_level_.size();
  const std::size_t K = assignment_.copies.size();
  const std::size_t L = static_cast<std::size_t>(num_layers_);
  const std::size_t S = site_n_.size();

  // Pass 1 — displacement structure, shared by every slot (independent of
  // the slot's layer).  For each placed copy, its current parent layer, and
  // for each unselected ancestor that precedes the copy's first selected
  // ancestor in the level-descending chain: selecting that ancestor would
  // re-parent the copy onto the new store (parent_layer walks the same chain
  // and stops at the first selected entry).
  scr_parent_.assign(K, 0);
  scr_desc_max_.assign(C, -1);
  scr_displaces_.assign(C * K, 0);
  for (std::size_t k = 0; k < K; ++k) {
    const PlacedCopy& pc = assignment_.copies[k];
    int parent = home_[cc_array_[static_cast<std::size_t>(pc.cc_id)]];
    for (int anc : ancestors(pc.cc_id)) {
      std::size_t ac = static_cast<std::size_t>(anc);
      int layer = copy_layer_[ac];
      if (layer >= 0) {
        parent = layer;
        break;
      }
      scr_displaces_[ac * K + k] = 1;
      if (pc.layer > scr_desc_max_[ac]) scr_desc_max_[ac] = pc.layer;
    }
    scr_parent_[k] = parent;
  }

  // Pass 2 — site-major accumulation.  Every slot's (energy, access-cycle)
  // accumulators receive exactly one addition per site, in site-id order:
  // the redirected term when the slot's candidate would take over the site
  // (the same level-strict condition select_copy applies), the live serving
  // term otherwise.  Per accumulator this is the canonical totals() site
  // pass, so the doubles match the sequential path bit for bit.
  scr_stamp_.assign(C, -1);
  scr_e_.assign(count, 0.0);
  scr_ac_.assign(count, 0.0);
  for (std::size_t s = 0; s < S; ++s) {
    int cur = serving_cc_[s];
    if (cur >= 0) {
      int cur_level = cc_level_[static_cast<std::size_t>(cur)];
      for (int c : covering(s)) {
        if (cc_level_[static_cast<std::size_t>(c)] <= cur_level) break;  // level-descending
        scr_stamp_[static_cast<std::size_t>(c)] = static_cast<int>(s);
      }
    } else {
      for (int c : covering(s)) scr_stamp_[static_cast<std::size_t>(c)] = static_cast<int>(s);
    }
    const double* se = &site_energy_[s * L];
    const double* sc = &site_cycles_[s * L];
    const std::size_t base = static_cast<std::size_t>(serving_layer(s));
    for (std::size_t m = 0; m < count; ++m) {
      std::size_t l = scr_stamp_[static_cast<std::size_t>(cc_ids[m])] == static_cast<int>(s)
                          ? static_cast<std::size_t>(layers[m])
                          : base;
      scr_e_[m] += se[l];
      scr_ac_[m] += sc[l];
    }
  }

  // Active pinned terms, hoisted once (homes are untouched by a select):
  // the exact (energy, cycles) additions totals() performs, in declaration
  // order.
  scr_pin_e_.clear();
  scr_pin_c_.clear();
  for (std::size_t a = 0; a < array_names_.size(); ++a) {
    int home = home_[a];
    if (home == background_) continue;
    std::size_t idx = a * L + static_cast<std::size_t>(home);
    if (array_input_[a]) {
      scr_pin_e_.push_back(pin_fill_energy_[idx]);
      scr_pin_c_.push_back(pin_fill_cycles_[idx]);
    }
    if (array_output_[a]) {
      scr_pin_e_.push_back(pin_flush_energy_[idx]);
      scr_pin_c_.push_back(pin_flush_cycles_[idx]);
    }
  }

  // Pass 3 — per-slot verdicts and transfer/pinned tails.  Feasibility is
  // the tracker's exact post-place answer; layering validity reduces to the
  // two new constraints (pre-move state is layering-valid, the searches'
  // standing invariant): the new copy sits below its parent store, and
  // strictly above every copy it would re-parent.  Transfers are folded in
  // copy-selection order with the new copy last — exactly the order
  // totals() sees after select_copy's push_back.
  for (std::size_t m = 0; m < count; ++m) {
    int cc_id = cc_ids[m];
    int layer = layers[m];
    std::size_t c = static_cast<std::size_t>(cc_id);
    int parent_c = parent_layer(cc_id);
    bool layering_ok = layer < parent_c && layer > scr_desc_max_[c];
    if (!layering_ok || !footprint_.feasible_with_copy(cc_id, layer)) {
      ok[m] = 0;
      continue;
    }
    ok[m] = 1;
    double e = scr_e_[m];
    double ac = scr_ac_[m];
    double tc = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      const PlacedCopy& pc = assignment_.copies[k];
      std::size_t pcc = static_cast<std::size_t>(pc.cc_id);
      int src = scr_displaces_[c * K + k] ? layer : scr_parent_[k];
      std::size_t idx = table_index(pc.cc_id, src, pc.layer);
      if (!cc_fill_free_[pcc]) {
        e += fill_energy_[idx];
        tc += xfer_cycles_[idx];
      }
      if (cc_write_back_[pcc]) {
        e += wb_energy_[idx];
        tc += xfer_cycles_[idx];
      }
    }
    std::size_t idx = table_index(cc_id, parent_c, layer);
    if (!cc_fill_free_[c]) {
      e += fill_energy_[idx];
      tc += xfer_cycles_[idx];
    }
    if (cc_write_back_[c]) {
      e += wb_energy_[idx];
      tc += xfer_cycles_[idx];
    }
    for (std::size_t p = 0; p < scr_pin_e_.size(); ++p) {
      e += scr_pin_e_[p];
      tc += scr_pin_c_[p];
    }
    scalars[m] = objective.scalar_terms(e, compute_cycles_ + ac + tc);
  }
}

double CostEngine::cc_energy_term(int cc_id, int src, int dst) const {
  std::size_t c = static_cast<std::size_t>(cc_id);
  std::size_t idx = table_index(cc_id, src, dst);
  double energy = 0.0;
  if (!cc_fill_free_[c]) energy += fill_energy_[idx];
  if (cc_write_back_[c]) energy += wb_energy_[idx];
  return energy;
}

double CostEngine::cc_cycle_term(int cc_id, int src, int dst) const {
  std::size_t c = static_cast<std::size_t>(cc_id);
  std::size_t idx = table_index(cc_id, src, dst);
  double cycles = 0.0;
  if (!cc_fill_free_[c]) cycles += xfer_cycles_[idx];
  if (cc_write_back_[c]) cycles += xfer_cycles_[idx];
  return cycles;
}

double CostEngine::pinned_energy_term(std::size_t array, int home) const {
  if (home == background_) return 0.0;
  std::size_t idx = array * static_cast<std::size_t>(num_layers_) + static_cast<std::size_t>(home);
  double energy = 0.0;
  if (array_input_[array]) energy += pin_fill_energy_[idx];
  if (array_output_[array]) energy += pin_flush_energy_[idx];
  return energy;
}

double CostEngine::pinned_cycle_term(std::size_t array, int home) const {
  if (home == background_) return 0.0;
  std::size_t idx = array * static_cast<std::size_t>(num_layers_) + static_cast<std::size_t>(home);
  double cycles = 0.0;
  if (array_input_[array]) cycles += pin_fill_cycles_[idx];
  if (array_output_[array]) cycles += pin_flush_cycles_[idx];
  return cycles;
}

std::pair<double, double> CostEngine::pinned_totals() const {
  double energy = 0.0;
  double cycles = 0.0;
  const std::size_t L = static_cast<std::size_t>(num_layers_);
  for (std::size_t a = 0; a < array_names_.size(); ++a) {
    int home = home_[a];
    if (home == background_) continue;
    std::size_t idx = a * L + static_cast<std::size_t>(home);
    if (array_input_[a]) {
      energy += pin_fill_energy_[idx];
      cycles += pin_fill_cycles_[idx];
    }
    if (array_output_[a]) {
      energy += pin_flush_energy_[idx];
      cycles += pin_flush_cycles_[idx];
    }
  }
  return {energy, cycles};
}

Objective make_objective(const CostEngine& engine, double energy_weight, double time_weight) {
  CostEngine::Totals baseline = engine.totals();
  Objective obj;
  obj.energy_weight = energy_weight;
  obj.time_weight = time_weight;
  obj.baseline_energy_nj = baseline.energy_nj > 0 ? baseline.energy_nj : 1.0;
  obj.baseline_cycles = baseline.total_cycles() > 0 ? baseline.total_cycles() : 1.0;
  return obj;
}

}  // namespace mhla::assign
