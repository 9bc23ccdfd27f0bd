#include "core/exec/extents.hpp"

#include <algorithm>
#include <limits>

#include "core/dsl/analysis.hpp"

namespace cyclone::exec {

using dsl::Extent;
using dsl::Stmt;

namespace {

/// Reference vertical size used to resolve symbolic interval bounds for the
/// interval-aware k-extent analysis. Any value far larger than real interval
/// offsets works; results are expressed as boundary-relative offsets again.
constexpr int kRefNk = 1 << 20;

/// Absolute (resolved) level range a statement covers, and per-field
/// consumption ranges.
struct LevelRange {
  long lo = std::numeric_limits<long>::max();
  long hi = std::numeric_limits<long>::min();  // inclusive

  void merge(long a, long b) {
    lo = std::min(lo, a);
    hi = std::max(hi, b);
  }
  [[nodiscard]] bool empty() const { return hi < lo; }
};

struct FlatStmt {
  const Stmt* stmt;
  long k_lo;  // resolved interval [k_lo, k_hi)
  long k_hi;
  dsl::IterOrder order;
  int interval;  // index of the interval block, counted over the stencil
};

std::vector<FlatStmt> flatten_with_intervals(const dsl::StencilFunc& stencil) {
  std::vector<FlatStmt> out;
  int interval = 0;
  for (const auto& block : stencil.blocks()) {
    for (const auto& iv : block.intervals) {
      for (const auto& stmt : iv.body) {
        out.push_back(FlatStmt{&stmt, iv.k_range.lo_level(kRefNk), iv.k_range.hi_level(kRefNk),
                               block.order, interval});
      }
      ++interval;
    }
  }
  return out;
}

/// Every offset `name` is read at in `expr`.
void collect_offsets(const dsl::ExprP& expr, const std::string& name,
                     std::vector<dsl::Offset>& out) {
  if (expr->kind == dsl::ExprKind::FieldAccess && expr->name == name) out.push_back(expr->off);
  for (const auto& arg : expr->args) collect_offsets(arg, name, out);
}

/// Whether the union of the inclusive level ranges contains [lo, hi].
bool covers(std::vector<std::pair<long, long>> ranges, long lo, long hi) {
  std::sort(ranges.begin(), ranges.end());
  long reach = lo - 1;  // [lo, reach] is covered
  for (const auto& [a, b] : ranges) {
    if (a > reach + 1) break;
    reach = std::max(reach, b);
  }
  return reach >= hi;
}

/// Whether a launch may read a cell of temporary `temp` that no earlier
/// statement of the launch wrote. Conservative: a read counts as covered
/// only when its levels lie in the union of the levels that earlier
/// region-free statements wrote (reverse extent propagation makes each of
/// those write every column a later read needs), or, for a FORWARD/BACKWARD
/// read of a level the sweep already passed at the same column, in the
/// interval's own levels when a region-free statement of the interval
/// writes the temporary over at least the reader's columns. A
/// region-restricted write, a read before the first write, or a level gap
/// all make the temporary read cells it did not write.
bool may_read_unwritten(const std::vector<FlatStmt>& flat, const std::vector<StmtInfo>& info,
                        const std::string& temp) {
  std::vector<std::pair<long, long>> written;
  for (size_t idx = 0; idx < flat.size(); ++idx) {
    const FlatStmt& fs = flat[idx];
    // Only PARALLEL statements apply their vertical extension.
    const bool parallel = fs.order == dsl::IterOrder::Parallel;
    const long lo = fs.k_lo - (parallel ? info[idx].ext_k_lo_levels : 0);
    const long hi = fs.k_hi - 1 + (parallel ? info[idx].ext_k_hi_levels : 0);
    const bool writes = fs.stmt->lhs == temp && !fs.stmt->region;
    const auto covers_columns = [&](const dsl::Extent& w) {
      const dsl::Extent& r = info[idx].write_extent;
      return w.i_lo <= r.i_lo && w.i_hi >= r.i_hi && w.j_lo <= r.j_lo && w.j_hi >= r.j_hi;
    };
    bool sweep_writes = false;  // the interval writes the temporary under the reader
    for (size_t w = 0; w < flat.size(); ++w) {
      sweep_writes |= flat[w].interval == fs.interval && flat[w].stmt->lhs == temp &&
                      !flat[w].stmt->region && covers_columns(info[w].write_extent);
    }
    std::vector<dsl::Offset> offs;
    collect_offsets(fs.stmt->rhs, temp, offs);
    for (const dsl::Offset& off : offs) {
      std::vector<std::pair<long, long>> avail = written;
      const bool swept = off.i == 0 && off.j == 0 &&
                         ((fs.order == dsl::IterOrder::Forward && off.k < 0) ||
                          (fs.order == dsl::IterOrder::Backward && off.k > 0));
      if (sweep_writes && swept) avail.emplace_back(lo, hi);
      if (!covers(std::move(avail), lo + off.k, hi + off.k)) return true;
    }
    if (writes) written.emplace_back(lo, hi);
  }
  return false;
}

}  // namespace

std::vector<const Stmt*> flatten_stmts(const dsl::StencilFunc& stencil) {
  std::vector<const Stmt*> out;
  for (const auto& fs : flatten_with_intervals(stencil)) out.push_back(fs.stmt);
  return out;
}

std::vector<StmtInfo> compute_stmt_info(const dsl::StencilFunc& stencil) {
  const auto flat = flatten_with_intervals(stencil);
  std::vector<StmtInfo> info(flat.size());

  // --- Horizontal extents: reverse extent propagation (interval-blind,
  // safe because halos bound the apply rectangle).
  {
    std::map<std::string, Extent> consumed;
    for (size_t idx = flat.size(); idx-- > 0;) {
      const Stmt& stmt = *flat[idx].stmt;
      Extent out_ext;
      if (auto it = consumed.find(stmt.lhs); it != consumed.end()) out_ext = it->second;
      // Region statements extend like any other: the region bounds refer to
      // absolute global rows and clamp the apply rectangle at resolution
      // time, so extension in the tangential dimension is both safe and
      // required for consistency with the unrestricted statements they
      // override.
      info[idx].write_extent = out_ext;

      dsl::AccessInfo acc;
      dsl::collect_accesses(stmt.rhs, acc);
      for (const auto& [name, read_ext] : acc.reads) {
        if (name == stmt.lhs && !read_ext.is_zero()) info[idx].self_read_offset = true;
        Extent shifted;
        shifted.i_lo = out_ext.i_lo + read_ext.i_lo;
        shifted.i_hi = out_ext.i_hi + read_ext.i_hi;
        shifted.j_lo = out_ext.j_lo + read_ext.j_lo;
        shifted.j_hi = out_ext.j_hi + read_ext.j_hi;
        shifted.k_lo = out_ext.k_lo + read_ext.k_lo;
        shifted.k_hi = out_ext.k_hi + read_ext.k_hi;
        consumed[name].merge(shifted);
      }
    }
  }

  // --- Interval-aware vertical extension: resolve intervals at a reference
  // nk, collect the absolute levels each field is *read* at and *written*
  // at; the statements owning a field's lowest/highest written interval
  // extend to cover uncovered consumption, if any.
  std::map<std::string, LevelRange> read_levels;
  std::map<std::string, LevelRange> write_levels;
  for (const auto& fs : flat) {
    write_levels[fs.stmt->lhs].merge(fs.k_lo, fs.k_hi - 1);
    dsl::AccessInfo acc;
    dsl::collect_accesses(fs.stmt->rhs, acc);
    for (const auto& [name, ext] : acc.reads) {
      read_levels[name].merge(fs.k_lo + ext.k_lo, fs.k_hi - 1 + ext.k_hi);
    }
  }

  for (size_t idx = 0; idx < flat.size(); ++idx) {
    const FlatStmt& fs = flat[idx];
    auto rit = read_levels.find(fs.stmt->lhs);
    if (rit == read_levels.end()) continue;  // pure output: no extension
    const LevelRange& written = write_levels.at(fs.stmt->lhs);
    const LevelRange& needed = rit->second;
    // Only the boundary-owning statements extend.
    if (fs.k_lo == written.lo && needed.lo < written.lo) {
      info[idx].ext_k_lo_levels = static_cast<int>(written.lo - needed.lo);
    }
    if (fs.k_hi - 1 == written.hi && needed.hi > written.hi) {
      info[idx].ext_k_hi_levels = static_cast<int>(needed.hi - written.hi);
    }
  }
  return info;
}

std::map<std::string, TempAlloc> compute_temp_allocs(const dsl::StencilFunc& stencil) {
  const auto flat = flatten_with_intervals(stencil);
  const auto info = compute_stmt_info(stencil);

  // Horizontal halos: union of write extents and consumption extents.
  std::map<std::string, Extent> h_need;
  for (size_t idx = 0; idx < flat.size(); ++idx) {
    if (stencil.is_temporary(flat[idx].stmt->lhs)) {
      h_need[flat[idx].stmt->lhs].merge(info[idx].write_extent);
    }
  }
  const auto reads = dsl::infer_read_extents(stencil);
  for (const auto& temp : stencil.temporaries()) {
    if (auto it = reads.find(temp); it != reads.end()) h_need[temp].merge(it->second);
  }

  // Vertical margins: resolved written + extended + read levels vs [0, nk).
  std::map<std::string, LevelRange> levels;
  for (size_t idx = 0; idx < flat.size(); ++idx) {
    const auto& fs = flat[idx];
    if (stencil.is_temporary(fs.stmt->lhs)) {
      levels[fs.stmt->lhs].merge(fs.k_lo - info[idx].ext_k_lo_levels,
                                 fs.k_hi - 1 + info[idx].ext_k_hi_levels);
    }
    dsl::AccessInfo acc;
    dsl::collect_accesses(fs.stmt->rhs, acc);
    for (const auto& [name, ext] : acc.reads) {
      if (stencil.is_temporary(name)) {
        levels[name].merge(fs.k_lo + ext.k_lo, fs.k_hi - 1 + ext.k_hi);
      }
    }
  }

  constexpr long kRef = 1 << 20;
  std::map<std::string, TempAlloc> out;
  for (const auto& temp : stencil.temporaries()) {
    TempAlloc a;
    if (auto it = h_need.find(temp); it != h_need.end()) {
      a.halo_i = std::max(-it->second.i_lo, it->second.i_hi);
      a.halo_j = std::max(-it->second.j_lo, it->second.j_hi);
    }
    if (auto it = levels.find(temp); it != levels.end() && !it->second.empty()) {
      a.k_lo = static_cast<int>(std::min<long>(0, it->second.lo));
      a.k_hi = static_cast<int>(std::max<long>(0, it->second.hi - (kRef - 1)));
    }
    a.zero = may_read_unwritten(flat, info, temp);
    out[temp] = a;
  }
  return out;
}

}  // namespace cyclone::exec
