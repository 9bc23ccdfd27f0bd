#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/dsl/stencil.hpp"

namespace cyclone::exec {

/// Static, per-statement execution info shared by all executors.
struct StmtInfo {
  /// Extent by which the statement's *apply domain* must be extended beyond
  /// the compute domain so downstream consumers (within the same stencil)
  /// find their inputs computed (GT4Py extent analysis). The k component of
  /// this extent is analysis-only; runtime k extension uses the
  /// interval-aware fields below.
  dsl::Extent write_extent;
  /// Levels to extend this statement's interval downward / upward: nonzero
  /// only for the statement owning the written field's lowest / highest
  /// interval, and only when consumers actually read beyond the written
  /// range (interval-aware, unlike write_extent.k_*).
  int ext_k_lo_levels = 0;
  int ext_k_hi_levels = 0;
  /// Statement reads its own LHS at a nonzero offset — requires
  /// value-semantics buffering of the plane/volume before committing.
  bool self_read_offset = false;
};

/// Flattened statement order of a stencil (blocks → intervals → body).
std::vector<const dsl::Stmt*> flatten_stmts(const dsl::StencilFunc& stencil);

/// Compute per-statement info in flattened order.
std::vector<StmtInfo> compute_stmt_info(const dsl::StencilFunc& stencil);

/// Allocation requirement for one stencil temporary.
struct TempAlloc {
  int halo_i = 0;
  int halo_j = 0;
  int k_lo = 0;  ///< most negative k index used (<= 0)
  int k_hi = 0;  ///< levels needed beyond nk (>= 0)
  /// Some statement may read a cell no earlier statement of the launch
  /// wrote (a region-restricted write, a read before the first write, a
  /// level gap). Such a read sees 0 from a fresh temporary, so a launch
  /// that reuses storage must zero this one first.
  bool zero = false;
};

/// Allocation requirements for every temporary of the stencil: the union of
/// write extents of statements producing it and the extents it is consumed
/// with.
std::map<std::string, TempAlloc> compute_temp_allocs(const dsl::StencilFunc& stencil);

/// Horizontal access summary of one flattened statement — the raw material of
/// the concurrent runtime's interior/rim overlap analysis (comm/runtime.cpp),
/// which needs read offsets and apply extensions per statement to decide
/// whether a state may be split and how deep the rim must be.
struct StmtAccess {
  std::string lhs;
  bool lhs_is_temp = false;
  bool self_read_offset = false;
  /// Horizontal apply extension from the extent analysis (write_extent of
  /// compute_stmt_info; the k component is analysis-only).
  dsl::Extent write_extent;
  struct Read {
    std::string name;
    bool is_temp = false;
    dsl::Extent ext;
  };
  std::vector<Read> reads;
};

/// Per-statement horizontal access summaries in flattened order.
std::vector<StmtAccess> collect_stmt_accesses(const dsl::StencilFunc& stencil);

}  // namespace cyclone::exec
