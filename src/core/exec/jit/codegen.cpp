#include "core/exec/jit/codegen.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "core/exec/jit/abi.hpp"
#include "core/exec/tape.hpp"
#include "core/util/strings.hpp"

namespace cyclone::exec::jit {

namespace {

/// Exact double literal: hexfloat round-trips bit-for-bit, so the kernel
/// starts from the identical constant the tape pushes.
std::string lit_str(double v) {
  if (std::isnan(v)) return "__builtin_nan(\"\")";
  if (std::isinf(v)) return v > 0 ? "__builtin_inf()" : "(-__builtin_inf())";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  if (!(v < 0 || std::signbit(v))) return buf;
  std::string out = "(";
  out += buf;
  out += ")";
  return out;
}

/// Unique row pointers: loads of the same (slot, dj, dk) share one hoisted
/// pointer, mirroring the engine's per-row load-pointer cache.
using LoadKey = std::tuple<int, int, int>;

std::map<LoadKey, int> unique_loads(const CStmt& stmt) {
  std::map<LoadKey, int> qidx;
  for (const LoadSite& ls : stmt.loads) {
    const LoadKey key{ls.slot, ls.dj, ls.dk};
    if (!qidx.count(key)) {
      const int next = static_cast<int>(qidx.size());
      qidx[key] = next;
    }
  }
  return qidx;
}

/// Replay the postfix tape symbolically, producing one C expression per
/// statement. Every intermediate is parenthesized; value-duplicating ops
/// (min/max/select/sign/...) go through single-evaluation helper functions
/// so operands are never textually repeated.
std::string emit_expr(const CStmt& stmt, const std::map<LoadKey, int>& qidx) {
  std::vector<std::string> st;
  auto pop = [&]() {
    std::string s = std::move(st.back());
    st.pop_back();
    return s;
  };
  auto bin_op = [&](const char* op) {
    const std::string b = pop(), a = pop();
    st.push_back("(" + a + " " + op + " " + b + ")");
  };
  auto bin_fn = [&](const char* fn) {
    const std::string b = pop(), a = pop();
    st.push_back(std::string(fn) + "(" + a + ", " + b + ")");
  };
  auto cmp_op = [&](const char* op) {
    const std::string b = pop(), a = pop();
    st.push_back("((" + a + " " + op + " " + b + ") ? 1.0 : 0.0)");
  };
  auto un_fn = [&](const char* fn) {
    const std::string a = pop();
    st.push_back(std::string(fn) + "(" + a + ")");
  };

  for (const Instr& ins : stmt.code) {
    switch (ins.op) {
      case OpC::PushLit: st.push_back(lit_str(ins.lit)); break;
      case OpC::PushParam: st.push_back(str::numbered("CY_P[", ins.a) + "]"); break;
      case OpC::Load: {
        const LoadSite& ls = stmt.loads[ins.a];
        const int q = qidx.at(LoadKey{ls.slot, ls.dj, ls.dk});
        const std::string idx =
            ins.di == 0 ? "i" : "i + (" + std::to_string(ins.di) + ")";
        st.push_back(str::numbered("q", q) + "[" + idx + "]");
        break;
      }
      case OpC::Add: bin_op("+"); break;
      case OpC::Sub: bin_op("-"); break;
      case OpC::Mul: bin_op("*"); break;
      case OpC::Div: bin_op("/"); break;
      case OpC::Pow: bin_fn("pow"); break;
      case OpC::Min: bin_fn("cy_min"); break;
      case OpC::Max: bin_fn("cy_max"); break;
      case OpC::Lt: cmp_op("<"); break;
      case OpC::Le: cmp_op("<="); break;
      case OpC::Gt: cmp_op(">"); break;
      case OpC::Ge: cmp_op(">="); break;
      case OpC::Eq: cmp_op("=="); break;
      case OpC::Ne: cmp_op("!="); break;
      case OpC::And: bin_fn("cy_and"); break;
      case OpC::Or: bin_fn("cy_or"); break;
      case OpC::Neg: {
        const std::string a = pop();
        st.push_back("(-" + a + ")");
        break;
      }
      case OpC::Not: un_fn("cy_not"); break;
      case OpC::Abs: un_fn("fabs"); break;
      case OpC::Sqrt: un_fn("sqrt"); break;
      case OpC::Exp: un_fn("exp"); break;
      case OpC::Log: un_fn("log"); break;
      case OpC::Sin: un_fn("sin"); break;
      case OpC::Cos: un_fn("cos"); break;
      case OpC::Floor: un_fn("floor"); break;
      case OpC::Sign: un_fn("cy_sign"); break;
      case OpC::Select: {
        const std::string b = pop(), a = pop(), c = pop();
        st.push_back("cy_sel(" + c + ", " + a + ", " + b + ")");
        break;
      }
      case OpC::PowInt: {
        const std::string a = pop();
        st.push_back("cy_powint(" + a + ", " + std::to_string(ins.a) + ")");
        break;
      }
      case OpC::PowHalf: un_fn("sqrt"); break;
    }
  }
  return st.back();
}

std::string slot_ref(int slot) { return "CY_S[" + std::to_string(slot) + "]"; }

/// Hoisted per-row load pointers for the current (j, k). The i stride is
/// baked as 1 (the host verifies I-contiguity before dispatching here).
void emit_load_ptrs(std::ostringstream& os, const std::string& ind,
                    const std::map<LoadKey, int>& qidx) {
  for (const auto& [key, q] : qidx) {
    const auto [slot, dj, dk] = key;
    const std::string s = slot_ref(slot);
    os << ind << "const double* q" << q << " = " << s << ".origin + (long long)(j + (" << dj
       << ")) * " << s << ".sj + (long long)(k + (" << dk << ") + " << s << ".koff) * " << s
       << ".sk;\n";
  }
}

/// One row of a statement at fixed (j, k): hoist load pointers, then the
/// I-contiguous inner loop. `scratch_row` non-empty redirects the write to
/// that scratch-row pointer expression (two-phase commit compute phase);
/// otherwise the output row pointer is formed from the lhs slot, restrict-
/// qualified only when the statement never loads its own output.
void emit_row(std::ostringstream& os, const std::string& ind, const CStmt& stmt,
              const std::string& ilo, const std::string& ihi, const std::string& scratch_row) {
  const auto qidx = unique_loads(stmt);
  emit_load_ptrs(os, ind, qidx);
  const std::string expr = emit_expr(stmt, qidx);
  if (!scratch_row.empty()) {
    os << ind << "double* __restrict sr = " << scratch_row << ";\n";
    os << ind << "for (int i = " << ilo << "; i < " << ihi << "; ++i) sr[i - (" << ilo
       << ")] = " << expr << ";\n";
    return;
  }
  bool reads_lhs = false;
  for (const LoadSite& ls : stmt.loads) reads_lhs |= ls.slot == stmt.lhs_slot;
  const std::string s = slot_ref(stmt.lhs_slot);
  os << ind << "double* " << (reads_lhs ? "" : "__restrict ") << "o = " << s
     << ".origin + (long long)j * " << s << ".sj + (long long)(k + " << s << ".koff) * " << s
     << ".sk;\n";
  os << ind << "for (int i = " << ilo << "; i < " << ihi << "; ++i) o[i] = " << expr << ";\n";
}

/// j-band decomposition over `nj_expr` columns: the schedule's tile_j when
/// set, else one band per thread (the engine's banding fallback). Bands only
/// redistribute work — every point keeps exactly one writer — so values are
/// partition-independent by the same argument as the engine's tiles.
void emit_band_setup(std::ostringstream& os, const std::string& ind, const std::string& jlo,
                     const std::string& jhi) {
  os << ind << "const int cy_nj = " << jhi << " - " << jlo << ";\n";
  os << ind
     << "int cy_tj = A->tile_j > 0 ? A->tile_j : (cy_nt > 0 ? (cy_nj + cy_nt - 1) / cy_nt : "
        "cy_nj);\n";
  os << ind << "if (cy_tj < 1) cy_tj = 1;\n";
  os << ind << "const int cy_njb = (cy_nj + cy_tj - 1) / cy_tj;\n";
}

void emit_band_range(std::ostringstream& os, const std::string& ind, const std::string& jlo,
                     const std::string& jhi) {
  os << ind << "const int j0 = " << jlo << " + jb * cy_tj;\n";
  os << ind << "const int j1 = cy_imin(j0 + cy_tj, " << jhi << ");\n";
}

/// A statement of a Parallel block: a worksharing map over (k?, j-band)
/// units with the engine's ordering rules — k joins the map only when the
/// schedule maps k AND the output is not a single-plane broadcast; broadcast
/// outputs keep k serial ascending (a barrier after every level) so the last
/// level wins exactly as in the serial executor; self-reading statements
/// compute the whole apply volume into scratch, pass a barrier, then commit.
/// The unit's last loop is `nowait`; the kernel decides its closing barrier.
void emit_parallel_stmt(std::ostringstream& os, const CStmt& stmt, int fs) {
  os << "    { // S" << fs << " (parallel map)\n";
  os << "      const CyJitBounds b = A->stmts[" << fs << "];\n";
  os << "      const CyJitSlot ob = " << slot_ref(stmt.lhs_slot) << ";\n";
  os << "      (void)ob;\n";
  os << "      if (b.ihi > b.ilo && b.jhi > b.jlo && b.khi > b.klo) {\n";
  emit_band_setup(os, "        ", "b.jlo", "b.jhi");

  if (!stmt.info.self_read_offset) {
    os << "        if (A->k_as_map && ob.sk != 0) {\n";
    os << "          const long long cy_units = (long long)(b.khi - b.klo) * cy_njb;\n";
    os << "#pragma omp for schedule(static) nowait\n";
    os << "          for (long long u = 0; u < cy_units; ++u) {\n";
    os << "            const int k = b.klo + (int)(u / cy_njb);\n";
    os << "            const int jb = (int)(u % cy_njb);\n";
    emit_band_range(os, "            ", "b.jlo", "b.jhi");
    os << "            for (int j = j0; j < j1; ++j) {\n";
    emit_row(os, "              ", stmt, "b.ilo", "b.ihi", "");
    os << "            }\n";
    os << "          }\n";
    os << "        } else if (ob.sk != 0) {\n";
    os << "#pragma omp for schedule(static) nowait\n";
    os << "          for (int jb = 0; jb < cy_njb; ++jb) {\n";
    emit_band_range(os, "            ", "b.jlo", "b.jhi");
    os << "            for (int k = b.klo; k < b.khi; ++k) {\n";
    os << "              for (int j = j0; j < j1; ++j) {\n";
    emit_row(os, "                ", stmt, "b.ilo", "b.ihi", "");
    os << "              }\n";
    os << "            }\n";
    os << "          }\n";
    os << "        } else { // broadcast output: k serial ascending, last level wins\n";
    os << "          for (int k = b.klo; k < b.khi; ++k) {\n";
    os << "#pragma omp for schedule(static)\n";
    os << "            for (int jb = 0; jb < cy_njb; ++jb) {\n";
    emit_band_range(os, "              ", "b.jlo", "b.jhi");
    os << "              for (int j = j0; j < j1; ++j) {\n";
    emit_row(os, "                ", stmt, "b.ilo", "b.ihi", "");
    os << "              }\n";
    os << "            }\n";
    os << "          }\n";
    os << "        }\n";
  } else {
    os << "        double* cy_buf = A->scratch;\n";
    os << "        const long long cy_rni = b.ihi - b.ilo;\n";
    os << "        const long long cy_rnj = b.jhi - b.jlo;\n";
    os << "#pragma omp for schedule(static)\n";
    os << "        for (int jb = 0; jb < cy_njb; ++jb) {\n";
    emit_band_range(os, "          ", "b.jlo", "b.jhi");
    os << "          for (int k = b.klo; k < b.khi; ++k) {\n";
    os << "            for (int j = j0; j < j1; ++j) {\n";
    emit_row(os, "              ", stmt, "b.ilo", "b.ihi",
             "cy_buf + ((long long)(k - b.klo) * cy_rnj + (j - b.jlo)) * cy_rni");
    os << "            }\n";
    os << "          }\n";
    os << "        }\n";
    os << "#pragma omp for schedule(static) nowait\n";
    os << "        for (int jb = 0; jb < cy_njb; ++jb) {\n";
    emit_band_range(os, "          ", "b.jlo", "b.jhi");
    os << "          for (int k = b.klo; k < b.khi; ++k) { // ascending commit: broadcast-safe\n";
    os << "            for (int j = j0; j < j1; ++j) {\n";
    os << "              const double* sr = cy_buf + ((long long)(k - b.klo) * cy_rnj + (j - "
          "b.jlo)) * cy_rni;\n";
    os << "              double* o = ob.origin + (long long)j * ob.sj + (long long)(k + "
          "ob.koff) * ob.sk;\n";
    os << "              for (int i = b.ilo; i < b.ihi; ++i) o[i] = sr[i - b.ilo];\n";
    os << "            }\n";
    os << "          }\n";
    os << "        }\n";
  }
  os << "      }\n";
  os << "    }\n";
}

/// Horizontally independent sequential interval: threads own disjoint
/// j-bands of the union rectangle and each runs the full (k, statement)
/// recurrence over its own columns — per column this is exactly the serial
/// order, hence bitwise identity for any band decomposition.
void emit_columns_interval(std::ostringstream& os, const CInterval& iv, bool fwd, int fi,
                           int fs_base) {
  os << "    { // I" << fi << " (" << (fwd ? "forward" : "backward") << " column sweep)\n";
  os << "      const CyJitIv v = A->intervals[" << fi << "];\n";
  os << "      if (v.k1 > v.k0 && v.jhi > v.jlo && v.ihi > v.ilo) {\n";
  emit_band_setup(os, "        ", "v.jlo", "v.jhi");
  os << "#pragma omp for schedule(static) nowait\n";
  os << "        for (int jb = 0; jb < cy_njb; ++jb) {\n";
  emit_band_range(os, "          ", "v.jlo", "v.jhi");
  if (fwd) {
    os << "          for (int k = v.k0; k < v.k1; ++k) {\n";
  } else {
    os << "          for (int k = v.k1 - 1; k >= v.k0; --k) {\n";
  }
  for (size_t s = 0; s < iv.body.size(); ++s) {
    const CStmt& stmt = iv.body[s];
    const int fs = fs_base + static_cast<int>(s);
    os << "            { // S" << fs << "\n";
    os << "              const CyJitBounds b = A->stmts[" << fs << "];\n";
    os << "              if (k >= b.klo && k < b.khi) {\n";
    os << "                const int jj0 = cy_imax(b.jlo, j0);\n";
    os << "                const int jj1 = cy_imin(b.jhi, j1);\n";
    os << "                for (int j = jj0; j < jj1; ++j) {\n";
    emit_row(os, "                  ", stmt, "b.ilo", "b.ihi", "");
    os << "                }\n";
    os << "              }\n";
    os << "            }\n";
  }
  os << "          }\n";
  os << "        }\n";
  os << "      }\n";
  os << "    }\n";
}

/// Horizontally coupled sequential interval: the serial level-by-level
/// order is preserved and each plane is applied as a worksharing map (with
/// the per-plane two-phase scratch commit for self-reading statements),
/// exactly like the engine's fallback. Every loop keeps its barrier.
void emit_plane_interval(std::ostringstream& os, const CInterval& iv, bool fwd, int fi,
                         int fs_base) {
  os << "    { // I" << fi << " (" << (fwd ? "forward" : "backward") << " plane sweep)\n";
  os << "      const CyJitIv v = A->intervals[" << fi << "];\n";
  if (fwd) {
    os << "      for (int k = v.k0; k < v.k1; ++k) {\n";
  } else {
    os << "      for (int k = v.k1 - 1; k >= v.k0; --k) {\n";
  }
  for (size_t s = 0; s < iv.body.size(); ++s) {
    const CStmt& stmt = iv.body[s];
    const int fs = fs_base + static_cast<int>(s);
    os << "        { // S" << fs << "\n";
    os << "          const CyJitBounds b = A->stmts[" << fs << "];\n";
    os << "          if (k >= b.klo && k < b.khi && b.ihi > b.ilo && b.jhi > b.jlo) {\n";
    emit_band_setup(os, "            ", "b.jlo", "b.jhi");
    if (!stmt.info.self_read_offset) {
      os << "#pragma omp for schedule(static)\n";
      os << "            for (int jb = 0; jb < cy_njb; ++jb) {\n";
      emit_band_range(os, "              ", "b.jlo", "b.jhi");
      os << "              for (int j = j0; j < j1; ++j) {\n";
      emit_row(os, "                ", stmt, "b.ilo", "b.ihi", "");
      os << "              }\n";
      os << "            }\n";
    } else {
      os << "            const CyJitSlot ob = " << slot_ref(stmt.lhs_slot) << ";\n";
      os << "            double* cy_buf = A->scratch;\n";
      os << "            const long long cy_rni = b.ihi - b.ilo;\n";
      os << "#pragma omp for schedule(static)\n";
      os << "            for (int jb = 0; jb < cy_njb; ++jb) {\n";
      emit_band_range(os, "              ", "b.jlo", "b.jhi");
      os << "              for (int j = j0; j < j1; ++j) {\n";
      emit_row(os, "                ", stmt, "b.ilo", "b.ihi",
               "cy_buf + (long long)(j - b.jlo) * cy_rni");
      os << "              }\n";
      os << "            }\n";
      os << "#pragma omp for schedule(static)\n";
      os << "            for (int jb = 0; jb < cy_njb; ++jb) {\n";
      emit_band_range(os, "              ", "b.jlo", "b.jhi");
      os << "              for (int j = j0; j < j1; ++j) {\n";
      os << "                const double* sr = cy_buf + (long long)(j - b.jlo) * cy_rni;\n";
      os << "                double* o = ob.origin + (long long)j * ob.sj + (long long)(k + "
            "ob.koff) * ob.sk;\n";
      os << "                for (int i = b.ilo; i < b.ihi; ++i) o[i] = sr[i - b.ilo];\n";
      os << "              }\n";
      os << "            }\n";
    }
    os << "          }\n";
    os << "        }\n";
  }
  os << "      }\n";
  os << "    }\n";
}

/// One unit of a kernel's parallel region: a Parallel-block statement, or a
/// whole sequential interval (column or plane sweep), with the slots it
/// reads and writes. The two-phase commit buffer counts as one extra slot.
struct Unit {
  const CStmt* stmt = nullptr;    ///< set for a Parallel-block statement
  const CInterval* iv = nullptr;  ///< set for a sequential interval
  bool fwd = true;                ///< sequential interval: Forward order
  int fs = 0;                     ///< (first) flat statement index
  int fi = 0;                     ///< sequential interval: flat interval index
  std::set<int> reads, writes;
};

constexpr int kScratchSlot = -1;

void add_access(Unit& u, const CStmt& stmt) {
  for (const LoadSite& ls : stmt.loads) u.reads.insert(ls.slot);
  u.writes.insert(stmt.lhs_slot);
  if (stmt.info.self_read_offset) {
    u.reads.insert(kScratchSlot);
    u.writes.insert(kScratchSlot);
  }
}

std::vector<Unit> kernel_units(const CompiledStencil& cs) {
  std::vector<Unit> units;
  int fs = 0;
  int fi = 0;
  for (const CBlock& block : cs.blocks()) {
    for (const CInterval& iv : block.intervals) {
      if (block.order == dsl::IterOrder::Parallel) {
        for (const CStmt& stmt : iv.body) {
          Unit u;
          u.stmt = &stmt;
          u.fs = fs++;
          add_access(u, stmt);
          units.push_back(std::move(u));
        }
      } else {
        Unit u;
        u.iv = &iv;
        u.fwd = block.order == dsl::IterOrder::Forward;
        u.fs = fs;
        u.fi = fi;
        for (const CStmt& stmt : iv.body) add_access(u, stmt);
        fs += static_cast<int>(iv.body.size());
        units.push_back(std::move(u));
      }
      ++fi;
    }
  }
  return units;
}

bool meets(const std::set<int>& a, const std::set<int>& b) {
  for (const int s : a) {
    if (b.count(s)) return true;
  }
  return false;
}

/// The barrier pass, over units in emission order. It tracks the slots read
/// and written since the last barrier; unit u may close without one only if
/// unit u + 1 reads none of those written slots and writes none of those
/// read or written. Every point has one writer and dependent units stay
/// ordered, so values do not depend on the team size or band split. The
/// last unit needs no barrier: the region's end joins the team.
std::vector<bool> closing_barriers(const std::vector<Unit>& units) {
  std::vector<bool> keep(units.size(), false);
  std::set<int> reads, writes;
  for (size_t u = 0; u + 1 < units.size(); ++u) {
    reads.insert(units[u].reads.begin(), units[u].reads.end());
    writes.insert(units[u].writes.begin(), units[u].writes.end());
    const Unit& next = units[u + 1];
    if (meets(next.reads, writes) || meets(next.writes, reads) || meets(next.writes, writes)) {
      keep[u] = true;
      reads.clear();
      writes.clear();
    }
  }
  return keep;
}

/// One kernel = one parallel region. The team forks only when some
/// worksharing loop has more than 1024 points (the per-loop test the engine
/// applies), so launches too small to pay for a fork run on the calling
/// thread. Unit-closing barriers are explicit and unconditional, so a unit
/// whose bounds are empty at run time still synchronizes the team.
void emit_kernel(std::ostringstream& os, const CompiledStencil& cs, int index) {
  const std::vector<Unit> units = kernel_units(cs);
  const std::vector<bool> keep = closing_barriers(units);
  os << "extern \"C\" void cyk_" << index << "(const CyJitArgs* A) { // "
     << cs.stencil().name() << "\n";
  os << "  const CyJitSlot* CY_S = A->slots;\n";
  os << "  const double* CY_P = A->params;\n";
  os << "  const int cy_nt = A->num_threads;\n";
  os << "  (void)CY_S; (void)CY_P;\n";
  os << "  long long cy_w = 0;\n";
  for (const Unit& u : units) {
    if (u.stmt) {
      os << "  cy_w = cy_lmax(cy_w, cy_vol(A->stmts[" << u.fs << "]));\n";
    } else if (u.iv->columns_independent) {
      os << "  cy_w = cy_lmax(cy_w, cy_ivvol(A->intervals[" << u.fi << "]));\n";
    } else {
      for (size_t s = 0; s < u.iv->body.size(); ++s) {
        os << "  cy_w = cy_lmax(cy_w, cy_area(A->stmts[" << u.fs + static_cast<int>(s)
           << "], A->intervals[" << u.fi << "]));\n";
      }
    }
  }
  os << "  const int cy_go = cy_nt > 1 && cy_w > 1024;\n";
  os << "#pragma omp parallel num_threads(cy_nt) if(cy_go)\n";
  os << "  {\n";
  for (size_t n = 0; n < units.size(); ++n) {
    const Unit& u = units[n];
    if (u.stmt) {
      emit_parallel_stmt(os, *u.stmt, u.fs);
    } else if (u.iv->columns_independent) {
      emit_columns_interval(os, *u.iv, u.fwd, u.fi, u.fs);
    } else {
      emit_plane_interval(os, *u.iv, u.fwd, u.fi, u.fs);
    }
    if (n + 1 == units.size()) break;
    if (keep[n]) {
      os << "#pragma omp barrier\n";
    } else {
      os << "    // nowait: the next unit has no hazard with the open units\n";
    }
  }
  os << "  }\n";
  os << "}\n\n";
}

}  // namespace

int flat_stmt_count(const CompiledStencil& cs) {
  int n = 0;
  for (const CBlock& block : cs.blocks()) {
    for (const CInterval& iv : block.intervals) n += static_cast<int>(iv.body.size());
  }
  return n;
}

int flat_interval_count(const CompiledStencil& cs) {
  int n = 0;
  for (const CBlock& block : cs.blocks()) n += static_cast<int>(block.intervals.size());
  return n;
}

std::string emit_translation_unit(const std::vector<const CompiledStencil*>& stencils) {
  std::ostringstream os;
  os << "// Generated by the cyclone JIT backend; do not edit.\n";
  os << "// ABI v" << kAbiVersion << " — must match src/core/exec/jit/abi.hpp.\n";
  os << "#pragma GCC diagnostic ignored \"-Wunknown-pragmas\"\n";
  os << "extern \"C\" {\n";
  os << "double pow(double, double);\n";
  os << "double sqrt(double);\n";
  os << "double exp(double);\n";
  os << "double log(double);\n";
  os << "double sin(double);\n";
  os << "double cos(double);\n";
  os << "double floor(double);\n";
  os << "double fabs(double);\n";
  os << "}\n";
  os << "struct CyJitSlot { double* origin; long long sj; long long sk; int koff; int nk; };\n";
  os << "struct CyJitBounds { int ilo, ihi, jlo, jhi, klo, khi; };\n";
  os << "struct CyJitIv { int k0, k1, ilo, ihi, jlo, jhi; };\n";
  os << "struct CyJitArgs {\n";
  os << "  const CyJitSlot* slots;\n";
  os << "  const double* params;\n";
  os << "  const CyJitBounds* stmts;\n";
  os << "  const CyJitIv* intervals;\n";
  os << "  double* scratch;\n";
  os << "  int tile_j;\n";
  os << "  int k_as_map;\n";
  os << "  int num_threads;\n";
  os << "};\n";
  os << "static inline int cy_imin(int a, int b) { return a < b ? a : b; }\n";
  os << "static inline int cy_imax(int a, int b) { return a < b ? b : a; }\n";
  // Points of one worksharing loop (0 when empty): a parallel map, a column
  // sweep, or one plane of a plane sweep. They feed the team-size decision.
  os << "static inline long long cy_lmax(long long a, long long b) { return a < b ? b : a; }\n";
  os << "static inline long long cy_vol(CyJitBounds b) {\n";
  os << "  return b.ihi > b.ilo && b.jhi > b.jlo && b.khi > b.klo\n";
  os << "             ? (long long)(b.ihi - b.ilo) * (b.jhi - b.jlo) * (b.khi - b.klo) : 0;\n";
  os << "}\n";
  os << "static inline long long cy_ivvol(CyJitIv v) {\n";
  os << "  return v.ihi > v.ilo && v.jhi > v.jlo && v.k1 > v.k0\n";
  os << "             ? (long long)(v.ihi - v.ilo) * (v.jhi - v.jlo) * (v.k1 - v.k0) : 0;\n";
  os << "}\n";
  os << "static inline long long cy_area(CyJitBounds b, CyJitIv v) {\n";
  os << "  return b.ihi > b.ilo && b.jhi > b.jlo && cy_imax(b.klo, v.k0) < cy_imin(b.khi, v.k1)\n";
  os << "             ? (long long)(b.ihi - b.ilo) * (b.jhi - b.jlo) : 0;\n";
  os << "}\n";
  // The double helpers replicate the tape executor's op semantics exactly
  // (argument order of min/max, eager select, NaN-is-zero sign).
  os << "static inline double cy_min(double a, double b) { return b < a ? b : a; }\n";
  os << "static inline double cy_max(double a, double b) { return a < b ? b : a; }\n";
  os << "static inline double cy_sel(double c, double a, double b) { return c != 0.0 ? a : b; "
        "}\n";
  os << "static inline double cy_sign(double a) { return (double)((a > 0.0) - (a < 0.0)); }\n";
  os << "static inline double cy_not(double a) { return a == 0.0 ? 1.0 : 0.0; }\n";
  os << "static inline double cy_and(double a, double b) { return (a != 0.0 && b != 0.0) ? 1.0 "
        ": 0.0; }\n";
  os << "static inline double cy_or(double a, double b) { return (a != 0.0 || b != 0.0) ? 1.0 "
        ": 0.0; }\n";
  os << "static inline double cy_powint(double x, int n) {\n";
  os << "  double acc = 1.0;\n";
  os << "  for (int m = 0; m < (n < 0 ? -n : n); ++m) acc *= x;\n";
  os << "  return n < 0 ? 1.0 / acc : acc;\n";
  os << "}\n\n";
  for (size_t s = 0; s < stencils.size(); ++s) {
    emit_kernel(os, *stencils[s], static_cast<int>(s));
  }
  return os.str();
}

}  // namespace cyclone::exec::jit
