#include "analysis/reuse.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace mhla::analysis {

namespace {

/// One access site with the per-(dim, level) terms every candidate it
/// joins needs, computed once.  Tables are flat, indexed [dim * depth +
/// level]; `level` counts loops of the site's path, outermost first.
struct SiteTable {
  const AccessSite* site = nullptr;
  const ir::ArrayDecl* array = nullptr;
  int array_order = 0;      ///< rank of the array's name among the program's arrays
  std::size_t depth = 0;    ///< loops on the path
  std::size_t terms = 0;    ///< offset into the coefficient and interval tables
  std::size_t prefix = 0;   ///< offset into the loop preorder ids
  i64 dynamic = 0;          ///< dynamic accesses issued by the site
};

/// (site, level) pair: the site's membership in the partition that fixes
/// its `level` outermost loops.
struct Entry {
  std::uint32_t table;
  std::uint32_t level;
};

/// Preorder position of every loop within its top-level nest, as
/// (loop, position) pairs sorted by address for lookup.  Keying
/// partitions by position rather than address makes the candidate order
/// — and every candidate id — a function of the program, not of heap
/// layout.
std::vector<std::pair<const ir::LoopNode*, int>> loop_preorder(const ir::Program& program) {
  std::vector<std::pair<const ir::LoopNode*, int>> position;
  for (const ir::NodePtr& top : program.top()) {
    int next = 0;
    auto visit = [&](auto& self, const ir::Node& node) -> void {
      if (!node.is_loop()) return;
      const ir::LoopNode& loop = node.as_loop();
      position.emplace_back(&loop, next++);
      for (const ir::NodePtr& child : loop.body()) self(self, *child);
    };
    visit(visit, *top);
  }
  std::sort(position.begin(), position.end());
  return position;
}

}  // namespace

ReuseAnalysis ReuseAnalysis::run(const ir::Program& program, const std::vector<AccessSite>& sites) {
  const std::vector<std::pair<const ir::LoopNode*, int>> preorder = loop_preorder(program);
  auto position_of = [&](const ir::LoopNode* loop) {
    auto it = std::lower_bound(preorder.begin(), preorder.end(),
                               std::pair<const ir::LoopNode*, int>(loop, 0));
    if (it == preorder.end() || it->first != loop) {
      throw std::out_of_range("ReuseAnalysis::run: site loop outside the program");
    }
    return it->second;
  };

  // Arrays ordered by name: candidates of one array are contiguous, in
  // name order.
  const std::vector<ir::ArrayDecl>& arrays = program.arrays();
  std::vector<std::size_t> by_name(arrays.size());
  for (std::size_t a = 0; a < arrays.size(); ++a) by_name[a] = a;
  std::sort(by_name.begin(), by_name.end(),
            [&](std::size_t a, std::size_t b) { return arrays[a].name < arrays[b].name; });
  std::vector<int> array_order(arrays.size());
  for (std::size_t r = 0; r < by_name.size(); ++r) array_order[by_name[r]] = static_cast<int>(r);

  // Per site: the coefficient of each path loop's iterator in each
  // subscript, and that loop's contribution to the subscript's interval
  // when it varies over its full range.
  std::vector<SiteTable> tables;
  std::vector<i64> coefs;
  std::vector<i64> lo_terms;
  std::vector<i64> hi_terms;
  std::vector<int> prefix_ids;
  std::vector<Entry> entries;
  tables.reserve(sites.size());
  for (const AccessSite& site : sites) {
    if (!site.array) continue;  // invalid programs are caught by validate()
    SiteTable t;
    t.site = &site;
    t.array = &program.array(site.access->array);
    t.array_order = array_order[static_cast<std::size_t>(t.array - arrays.data())];
    t.depth = site.path.size();
    t.terms = coefs.size();
    t.prefix = prefix_ids.size();
    t.dynamic = site.dynamic_accesses();
    for (int d = 0; d < t.array->rank(); ++d) {
      const ir::AffineExpr& expr = site.access->index[static_cast<std::size_t>(d)];
      for (const ir::LoopNode* loop : site.path) {
        i64 coef = expr.coef(loop->iter());
        i64 lo = 0;
        i64 hi = 0;
        if (coef != 0 && loop->trip() > 0) {
          i64 first = coef * loop->lower();
          i64 last = coef * (loop->lower() + (loop->trip() - 1) * loop->step());
          lo = std::min(first, last);
          hi = std::max(first, last);
        }
        coefs.push_back(coef);
        lo_terms.push_back(lo);
        hi_terms.push_back(hi);
      }
    }
    for (const ir::LoopNode* loop : site.path) prefix_ids.push_back(position_of(loop));
    for (std::size_t level = 0; level <= t.depth; ++level) {
      entries.push_back({static_cast<std::uint32_t>(tables.size()),
                         static_cast<std::uint32_t>(level)});
    }
    tables.push_back(t);
  }

  // A partition is every site of one array in one nest under the same
  // `level` fixed loops.  Sorting by (array name, nest, level, fixed-loop
  // preorder ids, site order) makes each partition a run of entries,
  // members in site order, and the runs come in the candidate order.
  auto key_of = [&](const Entry& e) {
    const SiteTable& t = tables[e.table];
    return std::tuple(t.array_order, t.site->nest, e.level);
  };
  auto prefix_of = [&](const Entry& e) {
    return prefix_ids.begin() + static_cast<std::ptrdiff_t>(tables[e.table].prefix);
  };
  std::sort(entries.begin(), entries.end(), [&](const Entry& a, const Entry& b) {
    if (key_of(a) != key_of(b)) return key_of(a) < key_of(b);
    auto [pa, pb] = std::mismatch(prefix_of(a), prefix_of(a) + a.level, prefix_of(b));
    if (pa != prefix_of(a) + a.level) return *pa < *pb;
    return a.table < b.table;
  });
  auto same_partition = [&](const Entry& a, const Entry& b) {
    return key_of(a) == key_of(b) && std::equal(prefix_of(a), prefix_of(a) + a.level, prefix_of(b));
  };

  ReuseAnalysis out;
  std::vector<i64> lo;
  std::vector<i64> hi;
  std::vector<bool> incompatible;
  std::vector<i64> widths;
  std::vector<const SiteTable*> members;
  for (std::size_t begin = 0; begin < entries.size();) {
    std::size_t end = begin + 1;
    while (end < entries.size() && same_partition(entries[begin], entries[end])) ++end;
    members.clear();
    for (std::size_t e = begin; e < end; ++e) members.push_back(&tables[entries[e].table]);
    const auto level = static_cast<std::size_t>(entries[begin].level);
    begin = end;

    const SiteTable& front = *members.front();
    const ir::ArrayDecl& array = *front.array;
    const auto rank = static_cast<std::size_t>(array.rank());

    // Union the member intervals, relative to the symbolic base the fixed
    // loops span, exactly where the bases agree (same fixed-loop
    // coefficients: members share their fixed loops, so comparing the
    // coefficient rows compares the bases), conservatively (whole extent)
    // where they do not.
    lo.assign(rank, 0);
    hi.assign(rank, 0);
    incompatible.assign(rank, false);
    i64 reads = 0;
    i64 writes = 0;
    for (const SiteTable* member : members) {
      for (std::size_t d = 0; d < rank; ++d) {
        const std::size_t row = member->terms + d * member->depth;
        i64 member_lo = member->site->access->index[d].constant();
        i64 member_hi = member_lo;
        for (std::size_t l = level; l < member->depth; ++l) {
          member_lo += lo_terms[row + l];
          member_hi += hi_terms[row + l];
        }
        if (member == &front) {
          lo[d] = member_lo;
          hi[d] = member_hi;
          continue;
        }
        const std::size_t front_row = front.terms + d * front.depth;
        if (!std::equal(coefs.begin() + static_cast<std::ptrdiff_t>(row),
                        coefs.begin() + static_cast<std::ptrdiff_t>(row + level),
                        coefs.begin() + static_cast<std::ptrdiff_t>(front_row))) {
          incompatible[d] = true;
        } else {
          lo[d] = std::min(lo[d], member_lo);
          hi[d] = std::max(hi[d], member_hi);
        }
      }
      if (member->site->is_read()) {
        reads += member->dynamic;
      } else {
        writes += member->dynamic;
      }
    }
    widths.resize(rank);
    i64 elems = 1;
    for (std::size_t d = 0; d < rank; ++d) {
      i64 width = incompatible[d] ? array.dims[d] : hi[d] - lo[d] + 1;
      widths[d] = std::min(width, array.dims[d]);
      elems *= widths[d];
    }

    CopyCandidate cc;
    cc.id = static_cast<int>(out.candidates_.size());
    cc.array = array.name;
    cc.nest = front.site->nest;
    cc.level = static_cast<int>(level);
    cc.elems = elems;
    cc.elem_bytes = array.elem_bytes;
    cc.bytes = elems * array.elem_bytes;
    cc.prefix.assign(front.site->path.begin(),
                     front.site->path.begin() + static_cast<std::ptrdiff_t>(level));
    cc.transfers = 1;
    for (const ir::LoopNode* loop : cc.prefix) cc.transfers *= loop->trip();

    // Delta elements per refresh of the merged box, relative to the
    // iterations of the innermost fixed loop.  If no member access moves
    // along that loop, the buffer content is reloaded wholesale
    // (conservative).
    cc.elems_per_transfer = elems;
    if (level > 0) {
      const i64 step = cc.prefix.back()->step();
      bool moves = false;
      i64 overlap = 1;
      for (std::size_t d = 0; d < rank; ++d) {
        i64 shift = 0;
        for (const SiteTable* member : members) {
          i64 s = std::llabs(coefs[member->terms + d * member->depth + level - 1]) * step;
          shift = std::max(shift, s);
          if (s != 0) moves = true;
        }
        overlap *= std::max<i64>(0, widths[d] - shift);
      }
      if (moves) cc.elems_per_transfer = std::max<i64>(elems - overlap, 0);
    }
    cc.reads_served = reads;
    cc.writes_served = writes;
    cc.site_ids.reserve(members.size());
    for (const SiteTable* member : members) cc.site_ids.push_back(member->site->id);

    // Write-allocate-without-fetch: the fill can be skipped when every read
    // is locally produced first — a member write with the identical
    // subscript vector appears earlier in statement order.
    if (writes > 0) {
      bool all_reads_covered = true;
      for (const SiteTable* read : members) {
        if (!read->site->is_read()) continue;
        bool covered = false;
        for (const SiteTable* write : members) {
          if (!write->site->is_write()) continue;
          if (write->site->id < read->site->id &&
              write->site->access->index == read->site->access->index) {
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

    out.candidates_.push_back(std::move(cc));
  }
  return out;
}

std::vector<int> ReuseAnalysis::candidates_for(const std::string& array) const {
  std::vector<int> ids;
  for (const CopyCandidate& cc : candidates_) {
    if (cc.array == array) ids.push_back(cc.id);
  }
  return ids;
}

}  // namespace mhla::analysis
