#include "core/exec/tape.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/dsl/analysis.hpp"
#include "core/dsl/builder.hpp"
#include "core/exec/engine.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace cyclone::exec {

using dsl::BinOp;
using dsl::ExprKind;
using dsl::ExprP;
using dsl::IterOrder;
using dsl::UnOp;

namespace {

OpC binop_code(BinOp op) {
  switch (op) {
    case BinOp::Add: return OpC::Add;
    case BinOp::Sub: return OpC::Sub;
    case BinOp::Mul: return OpC::Mul;
    case BinOp::Div: return OpC::Div;
    case BinOp::Pow: return OpC::Pow;
    case BinOp::Min: return OpC::Min;
    case BinOp::Max: return OpC::Max;
    case BinOp::Lt: return OpC::Lt;
    case BinOp::Le: return OpC::Le;
    case BinOp::Gt: return OpC::Gt;
    case BinOp::Ge: return OpC::Ge;
    case BinOp::Eq: return OpC::Eq;
    case BinOp::Ne: return OpC::Ne;
    case BinOp::And: return OpC::And;
    case BinOp::Or: return OpC::Or;
  }
  CY_ENSURE(false);
}

OpC unop_code(UnOp op) {
  switch (op) {
    case UnOp::Neg: return OpC::Neg;
    case UnOp::Not: return OpC::Not;
    case UnOp::Abs: return OpC::Abs;
    case UnOp::Sqrt: return OpC::Sqrt;
    case UnOp::Exp: return OpC::Exp;
    case UnOp::Log: return OpC::Log;
    case UnOp::Sin: return OpC::Sin;
    case UnOp::Cos: return OpC::Cos;
    case UnOp::Floor: return OpC::Floor;
    case UnOp::Sign: return OpC::Sign;
  }
  CY_ENSURE(false);
}

}  // namespace

int flatten_expr(const ExprP& expr, std::vector<Instr>& code, std::vector<LoadSite>& loads,
                 const std::map<std::string, int>& slot_of,
                 const std::map<std::string, int>& param_of) {
  switch (expr->kind) {
    case ExprKind::Literal:
      code.push_back(Instr{OpC::PushLit, 0, 0, expr->lit});
      return 1;
    case ExprKind::Param: {
      auto it = param_of.find(expr->name);
      CY_REQUIRE_MSG(it != param_of.end(), "unknown parameter '" << expr->name << "'");
      code.push_back(Instr{OpC::PushParam, it->second, 0, 0.0});
      return 1;
    }
    case ExprKind::FieldAccess: {
      auto it = slot_of.find(expr->name);
      CY_REQUIRE_MSG(it != slot_of.end(), "unknown field '" << expr->name << "'");
      const int load_id = static_cast<int>(loads.size());
      loads.push_back(LoadSite{it->second, expr->off.j, expr->off.k});
      code.push_back(Instr{OpC::Load, load_id, expr->off.i, 0.0});
      return 1;
    }
    case ExprKind::Unary: {
      const int d = flatten_expr(expr->args[0], code, loads, slot_of, param_of);
      code.push_back(Instr{unop_code(expr->uop), 0, 0, 0.0});
      return d;
    }
    case ExprKind::Binary: {
      const int d0 = flatten_expr(expr->args[0], code, loads, slot_of, param_of);
      const int d1 = flatten_expr(expr->args[1], code, loads, slot_of, param_of);
      code.push_back(Instr{binop_code(expr->bop), 0, 0, 0.0});
      return std::max(d0, 1 + d1);
    }
    case ExprKind::Select: {
      const int d0 = flatten_expr(expr->args[0], code, loads, slot_of, param_of);
      const int d1 = flatten_expr(expr->args[1], code, loads, slot_of, param_of);
      const int d2 = flatten_expr(expr->args[2], code, loads, slot_of, param_of);
      code.push_back(Instr{OpC::Select, 0, 0, 0.0});
      return std::max({d0, 1 + d1, 2 + d2});
    }
  }
  CY_ENSURE(false);
}

CompiledStencil::CompiledStencil(dsl::StencilFunc stencil) : stencil_(std::move(stencil)) {
  dsl::validate(stencil_);
  const auto info = compute_stmt_info(stencil_);
  const auto temp_allocs = compute_temp_allocs(stencil_);

  // Intern fields and params into slots.
  std::map<std::string, int> slot_of;
  std::map<std::string, int> param_of;
  const dsl::AccessInfo acc = dsl::analyze(stencil_);
  for (const auto& name : acc.fields()) {
    slot_of[name] = static_cast<int>(slot_names_.size());
    slot_names_.push_back(name);
    const bool is_temp = stencil_.is_temporary(name);
    slot_is_temp_.push_back(is_temp);
    slot_temp_alloc_.push_back(is_temp ? temp_allocs.at(name) : TempAlloc{});
  }
  for (const auto& name : acc.params) {
    param_of[name] = static_cast<int>(param_names_.size());
    param_names_.push_back(name);
  }

  size_t flat = 0;
  for (const auto& block : stencil_.blocks()) {
    CBlock cb;
    cb.order = block.order;
    for (const auto& iv : block.intervals) {
      CInterval ci;
      ci.k_range = iv.k_range;
      // Horizontal independence of the interval: no statement may read a
      // field written within the interval at a nonzero i/j offset, otherwise
      // a column sweep would observe a neighboring column mid-recurrence.
      std::set<std::string> written;
      for (const auto& stmt : iv.body) written.insert(stmt.lhs);
      bool independent = true;
      for (const auto& stmt : iv.body) {
        dsl::AccessInfo acc;
        dsl::collect_accesses(stmt.rhs, acc);
        for (const auto& [name, e] : acc.reads) {
          if (written.count(name) && (e.i_lo < 0 || e.i_hi > 0 || e.j_lo < 0 || e.j_hi > 0)) {
            independent = false;
          }
        }
      }
      ci.columns_independent = independent;
      for (const auto& stmt : iv.body) {
        CStmt cs;
        cs.lhs_slot = slot_of.at(stmt.lhs);
        cs.max_stack = flatten_expr(stmt.rhs, cs.code, cs.loads, slot_of, param_of);
        cs.info = info[flat++];
        cs.region = stmt.region;
        ci.body.push_back(std::move(cs));
      }
      cb.intervals.push_back(std::move(ci));
    }
    blocks_.push_back(std::move(cb));
  }
}

double eval_tape(const CStmt& stmt, const double* const* plane_ptrs,
                 const ptrdiff_t* plane_strides, const double* params, int i, double* stack) {
  (void)stack;
  return run_tape(stmt, plane_ptrs, plane_strides, params, i);
}

Workspace& Workspace::local() {
  thread_local Workspace ws;
  return ws;
}

double* Workspace::temps(size_t elems) {
  if (elems > temp_capacity_) {
    ASAN_UNPOISON_MEMORY_REGION(temps_.get(), temp_capacity_ * sizeof(double));
    temps_.reset(new double[elems]());
    temp_capacity_ = elems;
  }
  // Under AddressSanitizer the previous launch's redzones are lifted and
  // the unused tail is poisoned; the caller poisons this launch's redzones.
  ASAN_UNPOISON_MEMORY_REGION(temps_.get(), elems * sizeof(double));
  ASAN_POISON_MEMORY_REGION(temps_.get() + elems, (temp_capacity_ - elems) * sizeof(double));
  return temps_.get();
}

std::vector<SlotBind> CompiledStencil::resolve_slots(FieldCatalog& catalog,
                                                     const StencilArgs& args,
                                                     const LaunchDomain& dom) const {
  CY_REQUIRE_MSG(dom.ni > 0 && dom.nj > 0 && dom.nk > 0, "launch domain must be positive");

  // Temporaries are cut from the thread's launch-scoped arena, each at an
  // offset rounded to the field alignment so its rows align as an owned
  // field's would; under AddressSanitizer a poisoned redzone follows each
  // one, so an access past a temporary faults instead of landing in the
  // next. Negative extensions (the concurrent runtime's interior/rim
  // launches) shrink the apply rectangle, so they never enlarge temp halos:
  // clamp at 0.
  const int ext_i = std::max({dom.ext.ilo, dom.ext.ihi, 0});
  const int ext_j = std::max({dom.ext.jlo, dom.ext.jhi, 0});
  const auto temp_shape = [&](size_t s) {
    const TempAlloc& ta = slot_temp_alloc_[s];
    return FieldShape(dom.ni, dom.nj, dom.nk + (ta.k_hi - ta.k_lo),
                      HaloSpec{ta.halo_i + ext_i, ta.halo_j + ext_j});
  };
  const auto slice = [](const FieldShape& sh) {
    const size_t a = static_cast<size_t>(sh.alignment());
    return (sh.alloc_elems() + a - 1) / a * a + (kAsan ? a : 0);
  };
  size_t arena_elems = 0;
  for (size_t s = 0; s < slot_names_.size(); ++s) {
    if (slot_is_temp_[s]) arena_elems += slice(temp_shape(s));
  }
  double* arena = arena_elems > 0 ? Workspace::local().temps(arena_elems) : nullptr;

  std::vector<SlotBind> slots(slot_names_.size());
  for (size_t s = 0; s < slot_names_.size(); ++s) {
    SlotBind& sb = slots[s];
    FieldShape sh;
    if (slot_is_temp_[s]) {
      const TempAlloc& ta = slot_temp_alloc_[s];
      sh = temp_shape(s);
      // The arena holds whatever earlier launches left; a temporary whose
      // reads may reach cells this launch does not write starts from zero,
      // as a fresh one would.
      if (ta.zero) std::fill_n(arena, sh.alloc_elems(), 0.0);
      ASAN_POISON_MEMORY_REGION(arena + sh.alloc_elems(),
                                (slice(sh) - sh.alloc_elems()) * sizeof(double));
      sb.origin = arena + sh.index(0, 0, 0);
      sb.koff = -ta.k_lo;
      arena += slice(sh);
    } else {
      FieldD& f = catalog.at(args.actual(slot_names_[s]));
      sh = f.shape();
      sb.origin = f.data() + sh.index(0, 0, 0);
    }
    sb.si = sh.stride_i();
    sb.sj = sh.stride_j();
    sb.sk = sh.stride_k();
    sb.nk = sh.nk();
    // Single-level fields broadcast over k (GT4Py IJ-field semantics): a
    // zero k stride makes every level read/write the one plane.
    if (sh.nk() == 1 && dom.nk > 1) {
      sb.sk = 0;
      sb.nk = dom.nk;
    }
  }
  return slots;
}

std::vector<double> CompiledStencil::resolve_params(const StencilArgs& args) const {
  std::vector<double> pvals(param_names_.size());
  for (size_t p = 0; p < param_names_.size(); ++p) pvals[p] = args.param(param_names_[p]);
  return pvals;
}

void CompiledStencil::run(FieldCatalog& catalog, const StencilArgs& args, const LaunchDomain& dom,
                          const sched::Schedule& schedule, const RunOptions& run_options) const {
  const std::vector<SlotBind> slots = resolve_slots(catalog, args, dom);
  const std::vector<double> pvals = resolve_params(args);
  run_blocks(blocks_, dom, slots, pvals, schedule, run_options);
}

}  // namespace cyclone::exec
