#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/dsl/stencil.hpp"
#include "core/exec/extents.hpp"
#include "core/exec/launch.hpp"
#include "core/field/catalog.hpp"
#include "core/sched/schedule.hpp"

namespace cyclone::exec {

/// Bytecode opcodes for the flattened (postfix) expression tape.
enum class OpC : uint8_t {
  PushLit,
  PushParam,
  Load,
  Add,
  Sub,
  Mul,
  Div,
  Pow,
  Min,
  Max,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
  Neg,
  Not,
  Abs,
  Sqrt,
  Exp,
  Log,
  Sin,
  Cos,
  Floor,
  Sign,
  Select,
  PowInt,   ///< strength-reduced integer power: a = lit multiplications
  PowHalf,  ///< strength-reduced pow(x, 0.5) == sqrt(x)
};

/// One tape instruction. For Load: a = load-id (per-plane pointer cache
/// index); di = i offset. For PushLit: lit. For PushParam: a = param index.
/// For PowInt: a = integer exponent (may be negative).
struct Instr {
  OpC op;
  int32_t a = 0;
  int32_t di = 0;
  double lit = 0.0;
};

/// A load site: which field slot it reads and at what (j, k) offsets; the i
/// offset lives in the instruction so the per-plane pointer can be hoisted.
struct LoadSite {
  int slot = 0;
  int dj = 0;
  int dk = 0;
};

/// Compiled form of one statement.
struct CStmt {
  int lhs_slot = 0;
  std::vector<Instr> code;
  std::vector<LoadSite> loads;
  int max_stack = 0;
  StmtInfo info;
  std::optional<dsl::Region> region;
};

struct CInterval {
  dsl::Interval k_range;
  std::vector<CStmt> body;
  /// True when no statement of a sequential (Forward/Backward) interval
  /// reads a field written within the same interval at a nonzero horizontal
  /// offset. Such intervals sweep k per *column*, so the engine can
  /// parallelize the orthogonal horizontal tiles while each thread runs the
  /// vertical recurrence sequentially.
  bool columns_independent = false;
};

struct CBlock {
  dsl::IterOrder order = dsl::IterOrder::Parallel;
  std::vector<CInterval> intervals;
};

/// Resolved storage for one slot during a run: pointer at logical (0, 0, 0)
/// plus strides, the k offset of allocation level 0, and the allocated level
/// count used to clip statement k ranges. Shared by the tape engine and the
/// JIT backend (whose generated-kernel ABI mirrors this layout).
struct SlotBind {
  double* origin = nullptr;
  ptrdiff_t si = 0, sj = 0, sk = 0;
  int koff = 0;
  int nk = 0;
};

/// The arena stencil launches cut their temporaries from, one per thread.
/// Executors (CompiledStencil, jit::JitProgram) hold no launch state, so
/// once built they are immutable and any number of threads may share them.
/// What a launch takes stays valid until the next launch on the same thread.
class Workspace {
 public:
  /// The calling thread's workspace.
  static Workspace& local();

  /// Storage for `elems` doubles, the start of this launch's temporaries.
  /// The arena grows to the largest launch the thread has run and never
  /// shrinks, so a thread holds the temporaries of one launch, not of every
  /// stencil. It is not zeroed per launch: a launch finds whatever earlier
  /// launches left, and zeroes only the temporaries whose reads may reach
  /// cells it does not write (TempAlloc::zero).
  double* temps(size_t elems);
  [[nodiscard]] size_t temp_capacity() const { return temp_capacity_; }

 private:
  std::unique_ptr<double[]> temps_;
  size_t temp_capacity_ = 0;
};

/// A stencil lowered to bytecode: the analog of DaCe's generated kernel code.
/// Construction performs the full frontend pipeline (validation, extent
/// analysis, temporary sizing, tape flattening); run() is allocation-light
/// and reusable across many launches. Immutable once built: the launch
/// state lives in the calling thread's Workspace.
class CompiledStencil {
 public:
  explicit CompiledStencil(dsl::StencilFunc stencil);

  [[nodiscard]] const dsl::StencilFunc& stencil() const { return stencil_; }
  [[nodiscard]] const std::vector<CBlock>& blocks() const { return blocks_; }
  [[nodiscard]] const std::vector<std::string>& slot_names() const { return slot_names_; }
  [[nodiscard]] const std::vector<std::string>& param_names() const { return param_names_; }

  /// Execute under a schedule (tiling, map-vs-loop) and run options (thread
  /// count; the Tape backend runs a team of one). The default-schedule
  /// overloads keep the serial-era call sites working: an untiled schedule
  /// plus default run options reproduces the original executor bit-for-bit.
  void run(FieldCatalog& catalog, const StencilArgs& args, const LaunchDomain& dom,
           const sched::Schedule& schedule, const RunOptions& run_options) const;
  void run(FieldCatalog& catalog, const StencilArgs& args, const LaunchDomain& dom) const {
    run(catalog, args, dom, sched::Schedule{}, RunOptions{});
  }
  void run(FieldCatalog& catalog, const LaunchDomain& dom) const {
    run(catalog, StencilArgs{}, dom);
  }

  /// Resolve every slot to concrete storage for one launch: catalog fields
  /// through `args.bind` renaming, temporaries cut from the calling thread's
  /// Workspace arena (valid until its next launch). This is the binding
  /// step shared by run() and the JIT backend, which hands the same
  /// SlotBind table to its generated kernels.
  [[nodiscard]] std::vector<SlotBind> resolve_slots(FieldCatalog& catalog,
                                                    const StencilArgs& args,
                                                    const LaunchDomain& dom) const;

  /// Resolve scalar parameter values in param_names() order.
  [[nodiscard]] std::vector<double> resolve_params(const StencilArgs& args) const;

 private:
  dsl::StencilFunc stencil_;
  std::vector<CBlock> blocks_;
  std::vector<std::string> slot_names_;
  std::vector<bool> slot_is_temp_;
  std::vector<TempAlloc> slot_temp_alloc_;
  std::vector<std::string> param_names_;
};

/// Flatten one expression into postfix tape code; appends to `code` and
/// `loads`. `slot_of`/`param_of` intern names to indices. Returns the
/// maximum stack depth the appended code requires.
int flatten_expr(const dsl::ExprP& expr, std::vector<Instr>& code, std::vector<LoadSite>& loads,
                 const std::map<std::string, int>& slot_of,
                 const std::map<std::string, int>& param_of);

/// Evaluate a compiled tape at one point given resolved per-plane load
/// pointers. Exposed for testing.
double eval_tape(const CStmt& stmt, const double* const* plane_ptrs,
                 const ptrdiff_t* plane_strides, const double* params, int i, double* stack);

}  // namespace cyclone::exec
