#include "core/exec/engine.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cyclone::exec {

int resolved_num_threads(const RunOptions& run) {
  if (run.backend == ExecBackend::Tape) return 1;
  if (run.num_threads > 0) return run.num_threads;
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

std::vector<Tile> decompose_tiles(const Rect& rect, int tile_i, int tile_j) {
  std::vector<Tile> out;
  if (rect.empty()) return out;
  const int ti = tile_i > 0 ? tile_i : rect.i.size();
  const int tj = tile_j > 0 ? tile_j : rect.j.size();
  for (int j0 = rect.j.lo; j0 < rect.j.hi; j0 += tj) {
    for (int i0 = rect.i.lo; i0 < rect.i.hi; i0 += ti) {
      out.push_back(Tile{{i0, std::min(i0 + ti, rect.i.hi)}, {j0, std::min(j0 + tj, rect.j.hi)}});
    }
  }
  return out;
}

namespace {

constexpr int kMaxStack = 64;

/// Below this many points a statement is not worth a thread team unless the
/// caller asked for an explicit thread count.
constexpr long kParGrain = 1024;

/// Per-thread hoisted load pointers. Each OpenMP thread owns one, so the
/// per-row rebinding in bind_row never races.
struct ThreadState {
  std::vector<const double*> lptr;
  std::vector<ptrdiff_t> lsi;

  void init(const CStmt& stmt, const std::vector<SlotBind>& slots) {
    lptr.assign(stmt.loads.size(), nullptr);
    lsi.resize(stmt.loads.size());
    for (size_t l = 0; l < stmt.loads.size(); ++l) lsi[l] = slots[stmt.loads[l].slot].si;
  }

  void bind_row(const CStmt& stmt, const std::vector<SlotBind>& slots, int j, int k) {
    for (size_t l = 0; l < stmt.loads.size(); ++l) {
      const LoadSite& ls = stmt.loads[l];
      const SlotBind& sb = slots[ls.slot];
      lptr[l] = sb.origin + (j + ls.dj) * sb.sj + (k + ls.dk + sb.koff) * sb.sk;
    }
  }
};

Rect apply_rect(const CStmt& stmt, const LaunchDomain& dom) { return stmt_apply_rect(stmt, dom); }

/// Tiles to distribute: the schedule's tile shape when set; otherwise, when
/// the k units alone cannot occupy the team, a static j band per thread.
/// Banding changes only the work distribution, never values — every point
/// still has exactly one writer.
std::vector<Tile> stmt_tiles(const Rect& rect, const sched::Schedule& schedule, long k_units,
                             int nthreads) {
  int ti = schedule.tile_i;
  int tj = schedule.tile_j;
  if (ti <= 0 && tj <= 0 && nthreads > 1 && k_units < nthreads) {
    tj = std::max(1, (rect.j.size() + nthreads - 1) / nthreads);
  }
  return decompose_tiles(rect, ti, tj);
}

/// Apply one statement as a parallel map over (tile, k) work units. Used for
/// Parallel blocks (whole k range, k optionally a map) and as the per-plane
/// fallback of sequential intervals (k_hi == k_lo + 1, k_as_map false).
void apply_stmt_map(const CStmt& stmt, const LaunchDomain& dom, const std::vector<SlotBind>& slots,
                    const double* params, int k_lo, int k_hi, bool k_as_map,
                    const sched::Schedule& schedule, const RunOptions& run,
                    std::vector<double>& scratch) {
  const SlotBind out = slots[stmt.lhs_slot];
  k_lo = std::max(k_lo, -out.koff);
  k_hi = std::min(k_hi, out.nk - out.koff);
  if (k_hi <= k_lo) return;
  const Rect rect = apply_rect(stmt, dom);
  if (rect.empty()) return;

  const int nk = k_hi - k_lo;
  // A k map needs one writer per (i, j, k); a broadcast (single-plane) output
  // collapses every level onto one plane, so k stays sequential there and
  // the serial last-level-wins semantics is preserved.
  const bool k_par = k_as_map && out.sk != 0;
  const long k_units = k_par ? nk : 1;
  const int nthreads = resolved_num_threads(run);
  const std::vector<Tile> tiles = stmt_tiles(rect, schedule, k_units, nthreads);
  const long ntiles = static_cast<long>(tiles.size());
  const long units = ntiles * k_units;
  const long work = static_cast<long>(rect.i.size()) * rect.j.size() * nk;
  const bool go_par = nthreads > 1 && units > 1 && (run.num_threads > 0 || work > kParGrain);
  (void)go_par;

  if (!stmt.info.self_read_offset) {
#pragma omp parallel num_threads(nthreads) if (go_par)
    {
      ThreadState ts;
      ts.init(stmt, slots);
#pragma omp for schedule(static)
      for (long u = 0; u < units; ++u) {
        const Tile& t = tiles[static_cast<size_t>(u % ntiles)];
        const int kk_lo = k_par ? k_lo + static_cast<int>(u / ntiles) : k_lo;
        const int kk_hi = k_par ? kk_lo + 1 : k_hi;
        for (int k = kk_lo; k < kk_hi; ++k) {
          for (int j = t.j.lo; j < t.j.hi; ++j) {
            ts.bind_row(stmt, slots, j, k);
            double* optr = out.origin + j * out.sj + (k + out.koff) * out.sk;
            for (int i = t.i.lo; i < t.i.hi; ++i) {
              optr[i * out.si] = run_tape(stmt, ts.lptr.data(), ts.lsi.data(), params, i);
            }
          }
        }
      }
    }
    return;
  }

  // Value semantics for self-reading statements: every thread computes its
  // disjoint slice of the apply volume into a shared scratch buffer, the
  // `omp for` barrier separates the phases, then the same partition commits.
  const long ni = rect.i.size();
  const long njr = rect.j.size();
  scratch.resize(static_cast<size_t>(ni * njr * nk));
  double* buf = scratch.data();
#pragma omp parallel num_threads(nthreads) if (go_par)
  {
    ThreadState ts;
    ts.init(stmt, slots);
#pragma omp for schedule(static)
    for (long u = 0; u < units; ++u) {
      const Tile& t = tiles[static_cast<size_t>(u % ntiles)];
      const int kk_lo = k_par ? k_lo + static_cast<int>(u / ntiles) : k_lo;
      const int kk_hi = k_par ? kk_lo + 1 : k_hi;
      for (int k = kk_lo; k < kk_hi; ++k) {
        for (int j = t.j.lo; j < t.j.hi; ++j) {
          ts.bind_row(stmt, slots, j, k);
          double* srow =
              buf + (static_cast<long>(k - k_lo) * njr + (j - rect.j.lo)) * ni;
          for (int i = t.i.lo; i < t.i.hi; ++i) {
            srow[i - rect.i.lo] = run_tape(stmt, ts.lptr.data(), ts.lsi.data(), params, i);
          }
        }
      }
    }
#pragma omp for schedule(static)
    for (long u = 0; u < units; ++u) {
      const Tile& t = tiles[static_cast<size_t>(u % ntiles)];
      const int kk_lo = k_par ? k_lo + static_cast<int>(u / ntiles) : k_lo;
      const int kk_hi = k_par ? kk_lo + 1 : k_hi;
      for (int k = kk_lo; k < kk_hi; ++k) {
        for (int j = t.j.lo; j < t.j.hi; ++j) {
          const double* srow =
              buf + (static_cast<long>(k - k_lo) * njr + (j - rect.j.lo)) * ni;
          double* optr = out.origin + j * out.sj + (k + out.koff) * out.sk;
          for (int i = t.i.lo; i < t.i.hi; ++i) optr[i * out.si] = srow[i - rect.i.lo];
        }
      }
    }
  }
}

/// Column sweep of one horizontally independent sequential interval: tiles
/// of the union apply rectangle are distributed across threads, and each
/// thread runs the full k recurrence (in block order) over its own columns.
/// Per-column this replays the serial (k, statement) order exactly, so the
/// results are bitwise identical to the serial executor.
void run_interval_columns(dsl::IterOrder order, const CInterval& iv, const LaunchDomain& dom,
                          const std::vector<SlotBind>& slots, const double* params, int k0,
                          int k1, const sched::Schedule& schedule, const RunOptions& run) {
  struct StmtApply {
    const CStmt* stmt;
    SlotBind out;
    Rect rect;
    int k_lo, k_hi;
  };
  std::vector<StmtApply> apps;
  Rect uni;
  for (const CStmt& stmt : iv.body) {
    const SlotBind& out = slots[stmt.lhs_slot];
    const int kl = std::max(k0, -out.koff);
    const int kh = std::min(k1, out.nk - out.koff);
    const Rect rect = apply_rect(stmt, dom);
    if (kh <= kl || rect.empty()) continue;
    if (apps.empty()) {
      uni = rect;
    } else {
      uni.i.lo = std::min(uni.i.lo, rect.i.lo);
      uni.i.hi = std::max(uni.i.hi, rect.i.hi);
      uni.j.lo = std::min(uni.j.lo, rect.j.lo);
      uni.j.hi = std::max(uni.j.hi, rect.j.hi);
    }
    apps.push_back({&stmt, out, rect, kl, kh});
  }
  if (apps.empty()) return;

  const int nthreads = resolved_num_threads(run);
  const std::vector<Tile> tiles = stmt_tiles(uni, schedule, 1, nthreads);
  const long work = static_cast<long>(uni.i.size()) * uni.j.size() * (k1 - k0);
  const bool go_par =
      nthreads > 1 && tiles.size() > 1 && (run.num_threads > 0 || work > kParGrain);
  (void)go_par;
  const int kb = order == dsl::IterOrder::Forward ? k0 : k1 - 1;
  const int ke = order == dsl::IterOrder::Forward ? k1 : k0 - 1;
  const int dk = order == dsl::IterOrder::Forward ? 1 : -1;

#pragma omp parallel num_threads(nthreads) if (go_par)
  {
    std::vector<ThreadState> ts(apps.size());
    for (size_t s = 0; s < apps.size(); ++s) ts[s].init(*apps[s].stmt, slots);
#pragma omp for schedule(static)
    for (long t = 0; t < static_cast<long>(tiles.size()); ++t) {
      const Tile& tile = tiles[static_cast<size_t>(t)];
      for (int k = kb; k != ke; k += dk) {
        for (size_t s = 0; s < apps.size(); ++s) {
          const StmtApply& ap = apps[s];
          if (k < ap.k_lo || k >= ap.k_hi) continue;
          const int ilo = std::max(ap.rect.i.lo, tile.i.lo);
          const int ihi = std::min(ap.rect.i.hi, tile.i.hi);
          const int jlo = std::max(ap.rect.j.lo, tile.j.lo);
          const int jhi = std::min(ap.rect.j.hi, tile.j.hi);
          if (ihi <= ilo || jhi <= jlo) continue;
          const CStmt& stmt = *ap.stmt;
          for (int j = jlo; j < jhi; ++j) {
            ts[s].bind_row(stmt, slots, j, k);
            double* optr = ap.out.origin + j * ap.out.sj + (k + ap.out.koff) * ap.out.sk;
            for (int i = ilo; i < ihi; ++i) {
              optr[i * ap.out.si] = run_tape(stmt, ts[s].lptr.data(), ts[s].lsi.data(), params, i);
            }
          }
        }
      }
    }
  }
}

}  // namespace

Rect stmt_apply_rect(const CStmt& stmt, const LaunchDomain& dom) {
  Rect rect;
  rect.i = {stmt.info.write_extent.i_lo - dom.ext.ilo,
            dom.ni + stmt.info.write_extent.i_hi + dom.ext.ihi};
  rect.j = {stmt.info.write_extent.j_lo - dom.ext.jlo,
            dom.nj + stmt.info.write_extent.j_hi + dom.ext.jhi};
  if (stmt.region) rect = resolve_region(*stmt.region, dom, rect);
  return rect;
}

double run_tape(const CStmt& stmt, const double* const* lptr, const ptrdiff_t* lsi,
                const double* params, int i) {
  double stack[kMaxStack];
  int sp = 0;
  for (const Instr& ins : stmt.code) {
    switch (ins.op) {
      case OpC::PushLit: stack[sp++] = ins.lit; break;
      case OpC::PushParam: stack[sp++] = params[ins.a]; break;
      case OpC::Load: stack[sp++] = lptr[ins.a][(i + ins.di) * lsi[ins.a]]; break;
      case OpC::Add: --sp; stack[sp - 1] += stack[sp]; break;
      case OpC::Sub: --sp; stack[sp - 1] -= stack[sp]; break;
      case OpC::Mul: --sp; stack[sp - 1] *= stack[sp]; break;
      case OpC::Div: --sp; stack[sp - 1] /= stack[sp]; break;
      case OpC::Pow: --sp; stack[sp - 1] = std::pow(stack[sp - 1], stack[sp]); break;
      case OpC::Min: --sp; stack[sp - 1] = std::min(stack[sp - 1], stack[sp]); break;
      case OpC::Max: --sp; stack[sp - 1] = std::max(stack[sp - 1], stack[sp]); break;
      case OpC::Lt: --sp; stack[sp - 1] = stack[sp - 1] < stack[sp] ? 1.0 : 0.0; break;
      case OpC::Le: --sp; stack[sp - 1] = stack[sp - 1] <= stack[sp] ? 1.0 : 0.0; break;
      case OpC::Gt: --sp; stack[sp - 1] = stack[sp - 1] > stack[sp] ? 1.0 : 0.0; break;
      case OpC::Ge: --sp; stack[sp - 1] = stack[sp - 1] >= stack[sp] ? 1.0 : 0.0; break;
      case OpC::Eq: --sp; stack[sp - 1] = stack[sp - 1] == stack[sp] ? 1.0 : 0.0; break;
      case OpC::Ne: --sp; stack[sp - 1] = stack[sp - 1] != stack[sp] ? 1.0 : 0.0; break;
      case OpC::And:
        --sp;
        stack[sp - 1] = (stack[sp - 1] != 0.0 && stack[sp] != 0.0) ? 1.0 : 0.0;
        break;
      case OpC::Or:
        --sp;
        stack[sp - 1] = (stack[sp - 1] != 0.0 || stack[sp] != 0.0) ? 1.0 : 0.0;
        break;
      case OpC::Neg: stack[sp - 1] = -stack[sp - 1]; break;
      case OpC::Not: stack[sp - 1] = stack[sp - 1] == 0.0 ? 1.0 : 0.0; break;
      case OpC::Abs: stack[sp - 1] = std::abs(stack[sp - 1]); break;
      case OpC::Sqrt: stack[sp - 1] = std::sqrt(stack[sp - 1]); break;
      case OpC::Exp: stack[sp - 1] = std::exp(stack[sp - 1]); break;
      case OpC::Log: stack[sp - 1] = std::log(stack[sp - 1]); break;
      case OpC::Sin: stack[sp - 1] = std::sin(stack[sp - 1]); break;
      case OpC::Cos: stack[sp - 1] = std::cos(stack[sp - 1]); break;
      case OpC::Floor: stack[sp - 1] = std::floor(stack[sp - 1]); break;
      case OpC::Sign:
        stack[sp - 1] = (stack[sp - 1] > 0.0) - (stack[sp - 1] < 0.0);
        break;
      case OpC::Select: {
        sp -= 2;
        stack[sp - 1] = stack[sp - 1] != 0.0 ? stack[sp] : stack[sp + 1];
        break;
      }
      case OpC::PowInt: {
        // |a| multiplications; negative exponent takes the reciprocal.
        const double x = stack[sp - 1];
        const int n = ins.a;
        double acc = 1.0;
        for (int m = 0; m < (n < 0 ? -n : n); ++m) acc *= x;
        stack[sp - 1] = n < 0 ? 1.0 / acc : acc;
        break;
      }
      case OpC::PowHalf: stack[sp - 1] = std::sqrt(stack[sp - 1]); break;
    }
  }
  return stack[0];
}

void run_blocks(const std::vector<CBlock>& blocks, const LaunchDomain& dom,
                const std::vector<SlotBind>& slots, const std::vector<double>& params,
                const sched::Schedule& schedule, const RunOptions& run) {
  std::vector<double> scratch;
  const double* pvals = params.data();
  for (const auto& block : blocks) {
    switch (block.order) {
      case dsl::IterOrder::Parallel: {
        for (const auto& iv : block.intervals) {
          const int k0 = iv.k_range.lo_level(dom.nk);
          const int k1 = iv.k_range.hi_level(dom.nk);
          for (const auto& stmt : iv.body) {
            apply_stmt_map(stmt, dom, slots, pvals, k0 - stmt.info.ext_k_lo_levels,
                           k1 + stmt.info.ext_k_hi_levels, schedule.k_as_map, schedule, run,
                           scratch);
          }
        }
        break;
      }
      case dsl::IterOrder::Forward:
      case dsl::IterOrder::Backward: {
        const bool fwd = block.order == dsl::IterOrder::Forward;
        for (const auto& iv : block.intervals) {
          const int k0 = iv.k_range.lo_level(dom.nk);
          const int k1 = iv.k_range.hi_level(dom.nk);
          if (k1 <= k0) continue;
          if (iv.columns_independent) {
            run_interval_columns(block.order, iv, dom, slots, pvals, k0, k1, schedule, run);
            continue;
          }
          // Statements couple columns horizontally: keep the serial
          // level-by-level order and parallelize each plane instead.
          for (int n = 0; n < k1 - k0; ++n) {
            const int k = fwd ? k0 + n : k1 - 1 - n;
            for (const auto& stmt : iv.body) {
              apply_stmt_map(stmt, dom, slots, pvals, k, k + 1, false, schedule, run, scratch);
            }
          }
        }
        break;
      }
    }
  }
}

}  // namespace cyclone::exec
