// The map-keyed copy-candidate generation `analysis::ReuseAnalysis::run`
// replaced: a std::map partition per (array, nest, fixed-loop prefix), and
// per member a name-keyed signature map and interval vector.  The oracle
// `ReuseAnalysis::run` is equivalence-tested against (see oracles.h).

#include <algorithm>
#include <cstdlib>
#include <map>
#include <tuple>
#include <unordered_map>

#include "oracles/oracles.h"

namespace mhla::oracles {

using namespace analysis;

namespace {

/// One dimension of a footprint as an interval *relative to the symbolic
/// base* spanned by the fixed outer iterators: the subscript, with fixed
/// iterators treated as unknowns, ranges over [lo, hi] as the varying loops
/// run.  Two accesses under the same fixed loops can be unioned exactly when
/// their fixed-iterator coefficients agree (same symbolic base).
struct DimInterval {
  i64 lo = 0;
  i64 hi = 0;  ///< inclusive
  i64 width() const { return hi - lo + 1; }
};

/// Relative interval per array dimension of `access` with `fixed` outer
/// loops held constant.
std::vector<DimInterval> footprint_intervals(const ir::ArrayDecl& array,
                                             const ir::ArrayAccess& access,
                                             const ir::LoopPath& path, std::size_t fixed) {
  std::vector<DimInterval> intervals(static_cast<std::size_t>(array.rank()));
  for (int dim = 0; dim < array.rank(); ++dim) {
    const ir::AffineExpr& expr = access.index[static_cast<std::size_t>(dim)];
    DimInterval iv;
    iv.lo = expr.constant();
    iv.hi = expr.constant();
    for (std::size_t level = fixed; level < path.size(); ++level) {
      const ir::LoopNode& loop = *path[level];
      i64 coef = expr.coef(loop.iter());
      if (coef == 0 || loop.trip() <= 0) continue;
      i64 first = loop.lower();
      i64 last = loop.lower() + (loop.trip() - 1) * loop.step();
      iv.lo += std::min(coef * first, coef * last);
      iv.hi += std::max(coef * first, coef * last);
    }
    intervals[static_cast<std::size_t>(dim)] = iv;
  }
  return intervals;
}

/// Coefficients of the fixed outer iterators in dimension `dim` of `access`
/// (the "symbolic base" signature).  Union of two accesses' intervals is
/// exact iff their signatures match per dimension.
std::map<std::string, i64> fixed_signature(const ir::ArrayAccess& access, const ir::LoopPath& path,
                                           std::size_t fixed, int dim) {
  std::map<std::string, i64> signature;
  const ir::AffineExpr& expr = access.index[static_cast<std::size_t>(dim)];
  for (std::size_t level = 0; level < fixed && level < path.size(); ++level) {
    i64 coef = expr.coef(path[level]->iter());
    if (coef != 0) signature[path[level]->iter()] = coef;
  }
  return signature;
}

/// Key identifying a merge partition: same array, same nest, same fixed
/// loop prefix.  The prefix is keyed by each loop's preorder position in
/// its nest, not by node address, so the partition order — and with it
/// every candidate id — is a function of the program, not of heap layout.
struct PartitionKey {
  std::string array;
  int nest;
  std::vector<int> prefix;

  bool operator<(const PartitionKey& o) const {
    return std::tie(array, nest, prefix) < std::tie(o.array, o.nest, o.prefix);
  }
};

/// Preorder position of every loop within its top-level nest.
std::unordered_map<const ir::LoopNode*, int> loop_preorder(const ir::Program& program) {
  std::unordered_map<const ir::LoopNode*, int> position;
  for (const ir::NodePtr& top : program.top()) {
    int next = 0;
    auto visit = [&](auto& self, const ir::Node& node) -> void {
      if (!node.is_loop()) return;
      const ir::LoopNode& loop = node.as_loop();
      position.emplace(&loop, next++);
      for (const ir::NodePtr& child : loop.body()) self(self, *child);
    };
    visit(visit, *top);
  }
  return position;
}

/// Delta elements per refresh of the merged box, relative to the iterations
/// of the innermost fixed loop.  If no member access moves along that loop,
/// the buffer content is reloaded wholesale (conservative).
i64 merged_delta(const Box& box, const std::vector<const AccessSite*>& members, int level) {
  if (level == 0) return box.elems();
  const ir::LoopNode& outer = *members.front()->path[static_cast<std::size_t>(level - 1)];
  std::size_t rank = box.widths.size();
  std::vector<i64> shift(rank, 0);
  bool moves = false;
  for (const AccessSite* site : members) {
    for (std::size_t dim = 0; dim < rank; ++dim) {
      i64 coef = site->access->index[dim].coef(outer.iter());
      i64 s = std::llabs(coef) * outer.step();
      shift[dim] = std::max(shift[dim], s);
      if (s != 0) moves = true;
    }
  }
  if (!moves) return box.elems();
  i64 overlap = 1;
  for (std::size_t dim = 0; dim < rank; ++dim) {
    overlap *= std::max<i64>(0, box.widths[dim] - shift[dim]);
  }
  return std::max<i64>(box.elems() - overlap, 0);
}

}  // namespace

std::vector<CopyCandidate> reuse_reference(const ir::Program& program,
                                            const std::vector<AccessSite>& sites) {
  std::vector<CopyCandidate> candidates;
  std::map<PartitionKey, std::vector<const AccessSite*>> partitions;
  const std::unordered_map<const ir::LoopNode*, int> preorder = loop_preorder(program);

  for (const AccessSite& site : sites) {
    if (!site.array) continue;  // invalid programs are caught by validate()
    PartitionKey key;
    key.array = site.access->array;
    key.nest = site.nest;
    for (std::size_t level = 0; level <= site.path.size(); ++level) {
      if (level > 0) key.prefix.push_back(preorder.at(site.path[level - 1]));
      partitions[key].push_back(&site);
    }
  }

  for (const auto& [key, members] : partitions) {
    const ir::ArrayDecl& array = program.array(key.array);
    int level = static_cast<int>(key.prefix.size());
    std::size_t rank = static_cast<std::size_t>(array.rank());

    // Union the member footprints exactly where the symbolic bases agree
    // (same fixed-iterator coefficients), conservatively (whole extent)
    // where they do not.
    Box box;
    box.widths.assign(rank, 1);
    i64 reads = 0;
    i64 writes = 0;
    std::vector<DimInterval> merged;
    std::vector<std::map<std::string, i64>> signatures;
    std::vector<bool> incompatible(rank, false);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const AccessSite* site = members[m];
      auto intervals = footprint_intervals(array, *site->access, site->path, key.prefix.size());
      if (m == 0) {
        merged = intervals;
        signatures.resize(rank);
        for (std::size_t d = 0; d < rank; ++d) {
          signatures[d] =
              fixed_signature(*site->access, site->path, key.prefix.size(), static_cast<int>(d));
        }
      } else {
        for (std::size_t d = 0; d < rank; ++d) {
          auto sig =
              fixed_signature(*site->access, site->path, key.prefix.size(), static_cast<int>(d));
          if (sig != signatures[d]) {
            incompatible[d] = true;
          } else {
            merged[d].lo = std::min(merged[d].lo, intervals[d].lo);
            merged[d].hi = std::max(merged[d].hi, intervals[d].hi);
          }
        }
      }
      if (site->is_read()) {
        reads += site->dynamic_accesses();
      } else {
        writes += site->dynamic_accesses();
      }
    }
    for (std::size_t d = 0; d < rank; ++d) {
      i64 width = incompatible[d] ? array.dims[d] : merged[d].width();
      box.widths[d] = std::min(width, array.dims[d]);
    }

    CopyCandidate cc;
    cc.id = static_cast<int>(candidates.size());
    cc.array = key.array;
    cc.nest = key.nest;
    cc.level = level;
    cc.elems = box.elems();
    cc.elem_bytes = array.elem_bytes;
    cc.bytes = box.elems() * array.elem_bytes;
    cc.prefix.assign(members.front()->path.begin(), members.front()->path.begin() + level);
    cc.transfers = 1;
    for (const ir::LoopNode* loop : cc.prefix) cc.transfers *= loop->trip();
    cc.elems_per_transfer = merged_delta(box, members, level);
    cc.reads_served = reads;
    cc.writes_served = writes;
    for (const AccessSite* site : members) cc.site_ids.push_back(site->id);

    // Write-allocate-without-fetch: the fill can be skipped when every read
    // is locally produced first — a member write with the identical
    // subscript vector appears earlier in statement order.
    if (writes > 0) {
      bool all_reads_covered = true;
      for (const AccessSite* read_site : members) {
        if (!read_site->is_read()) continue;
        bool covered = false;
        for (const AccessSite* write_site : members) {
          if (!write_site->is_write()) continue;
          if (write_site->id < read_site->id &&
              write_site->access->index == read_site->access->index) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          all_reads_covered = false;
          break;
        }
      }
      cc.fill_free = all_reads_covered;
    }

    candidates.push_back(std::move(cc));
  }

  // Stable, meaningful ordering: per array, per nest, outer to inner; ties
  // keep the partition order.
  std::stable_sort(candidates.begin(), candidates.end(),
            [](const CopyCandidate& a, const CopyCandidate& b) {
              return std::tie(a.array, a.nest, a.level) < std::tie(b.array, b.nest, b.level);
            });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].id = static_cast<int>(i);
  }
  return candidates;
}

}  // namespace mhla::oracles
