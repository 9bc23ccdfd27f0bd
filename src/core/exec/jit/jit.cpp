#include "core/exec/jit/jit.hpp"

#include <algorithm>
#include <cstdio>

#include "core/exec/engine.hpp"
#include "core/exec/jit/codegen.hpp"
#include "core/exec/jit/compiler.hpp"

namespace cyclone::exec::jit {

namespace {

/// Native kernels bake the i stride as 1 and restrict-qualify output rows,
/// so they only run when every slot is I-contiguous and no two slots alias
/// the same storage (a binding can map two formal fields onto one catalog
/// field). Anything else takes the tape engine, which handles both.
bool jit_runnable(const std::vector<SlotBind>& slots) {
  for (size_t a = 0; a < slots.size(); ++a) {
    if (slots[a].si != 1) return false;
    for (size_t b = a + 1; b < slots.size(); ++b) {
      if (slots[a].origin == slots[b].origin) return false;
    }
  }
  return true;
}

}  // namespace

std::shared_ptr<JitProgram> JitProgram::build(const std::string& tag,
                                              const StencilList& stencils, KernelCache& cache) {
  auto jp = std::make_shared<JitProgram>();
  std::vector<const CompiledStencil*> ptrs;
  ptrs.reserve(stencils.size());
  for (const auto& [name, cs] : stencils) ptrs.push_back(cs.get());
  const std::string source = emit_translation_unit(ptrs);
  const std::string key = KernelCache::make_key(tag, source);
  std::string err;
  std::shared_ptr<LoadedModule> mod = cache.get(key, source, err);
  if (!mod) {
    jp->error_ = err;
    return jp;
  }
  for (size_t s = 0; s < ptrs.size(); ++s) {
    void* sym = mod->symbol("cyk_" + std::to_string(s));
    if (!sym) {
      jp->error_ = "module " + key + " lacks symbol cyk_" + std::to_string(s);
      jp->kernels_.clear();
      return jp;
    }
    jp->kernels_[ptrs[s]] = reinterpret_cast<KernelFn>(sym);
  }
  jp->module_ = std::move(mod);
  return jp;
}

void JitProgram::run(const CompiledStencil& cs, FieldCatalog& catalog, const StencilArgs& args,
                     const LaunchDomain& dom, const sched::Schedule& schedule,
                     const RunOptions& run) const {
  const std::vector<SlotBind> slots = cs.resolve_slots(catalog, args, dom);
  const std::vector<double> params = cs.resolve_params(args);

  KernelFn fn = nullptr;
  if (module_) {
    auto it = kernels_.find(&cs);
    if (it != kernels_.end()) fn = it->second;
  }
  if (!fn || !jit_runnable(slots)) {
    ++fallbacks_;
    if (!warned_.exchange(true)) {
      std::fprintf(stderr, "[cyclone-jit] falling back to tape engine for '%s': %s\n",
                   cs.stencil().name().c_str(),
                   !fn ? (error_.empty() ? "kernel not bound" : error_.c_str())
                       : "storage not JIT-runnable (strided or aliased slots)");
    }
    run_blocks(cs.blocks(), dom, slots, params, schedule, run);
    return;
  }

  // Resolve all bounds host-side with the engine's own clipping rules; the
  // kernel sees pre-digested rectangles. The walk order here must mirror
  // codegen's flat statement/interval numbering exactly.
  // Per-thread host tables and commit buffer, reused across launches, so a
  // JitProgram stays immutable and rank sides on a team may share it.
  struct Tables {
    std::vector<CyJitSlot> slots;
    std::vector<CyJitBounds> stmts;
    std::vector<CyJitIv> ivs;
    std::vector<double> scratch;
  };
  thread_local Tables tab;
  tab.slots.resize(slots.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    tab.slots[s] = CyJitSlot{slots[s].origin, slots[s].sj, slots[s].sk, slots[s].koff,
                             slots[s].nk};
  }
  tab.stmts.clear();
  tab.ivs.clear();
  long scratch_need = 0;
  for (const CBlock& block : cs.blocks()) {
    const bool parallel_block = block.order == dsl::IterOrder::Parallel;
    for (const CInterval& iv : block.intervals) {
      const int k0 = iv.k_range.lo_level(dom.nk);
      const int k1 = iv.k_range.hi_level(dom.nk);
      CyJitIv ve{k0, k1, 0, 0, 0, 0};
      bool have_uni = false;
      for (const CStmt& stmt : iv.body) {
        const SlotBind& out = slots[stmt.lhs_slot];
        int klo = parallel_block ? k0 - stmt.info.ext_k_lo_levels : k0;
        int khi = parallel_block ? k1 + stmt.info.ext_k_hi_levels : k1;
        klo = std::max(klo, -out.koff);
        khi = std::min(khi, out.nk - out.koff);
        const Rect rect = stmt_apply_rect(stmt, dom);
        tab.stmts.push_back(CyJitBounds{rect.i.lo, rect.i.hi, rect.j.lo, rect.j.hi, klo, khi});
        if (khi <= klo || rect.empty()) continue;
        if (!have_uni) {
          ve.ilo = rect.i.lo;
          ve.ihi = rect.i.hi;
          ve.jlo = rect.j.lo;
          ve.jhi = rect.j.hi;
          have_uni = true;
        } else {
          ve.ilo = std::min(ve.ilo, rect.i.lo);
          ve.ihi = std::max(ve.ihi, rect.i.hi);
          ve.jlo = std::min(ve.jlo, rect.j.lo);
          ve.jhi = std::max(ve.jhi, rect.j.hi);
        }
        if (stmt.info.self_read_offset) {
          // Parallel maps buffer the whole apply volume for the two-phase
          // commit; the plane-sweep fallback buffers one plane at a time.
          const long planes = (parallel_block || !iv.columns_independent)
                                  ? (parallel_block ? khi - klo : 1)
                                  : 0;
          scratch_need = std::max(
              scratch_need, static_cast<long>(rect.i.size()) * rect.j.size() * planes);
        }
      }
      if (!have_uni) ve = CyJitIv{0, 0, 0, 0, 0, 0};
      tab.ivs.push_back(ve);
    }
  }
  if (scratch_need > static_cast<long>(tab.scratch.size())) {
    tab.scratch.resize(static_cast<size_t>(scratch_need));
  }

  CyJitArgs a{};
  a.slots = tab.slots.data();
  a.params = params.data();
  a.stmts = tab.stmts.data();
  a.intervals = tab.ivs.data();
  a.scratch = tab.scratch.data();
  a.tile_j = schedule.tile_j;
  a.k_as_map = schedule.k_as_map ? 1 : 0;
  a.num_threads = resolved_num_threads(run);
  fn(&a);
}

}  // namespace cyclone::exec::jit
