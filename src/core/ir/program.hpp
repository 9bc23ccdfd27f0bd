#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dsl/stencil.hpp"
#include "core/exec/launch.hpp"
#include "core/exec/interpreter.hpp"
#include "core/exec/tape.hpp"
#include "core/field/catalog.hpp"
#include "core/sched/schedule.hpp"

namespace cyclone::exec::jit {
class JitProgram;
}

namespace cyclone::ir {

/// Vertical staggering of a field, needed to size data movement.
enum class FieldKind {
  Center3D,     ///< nk levels
  Interface3D,  ///< nk + 1 levels (pressure-interface fields)
  Plane2D,      ///< single level
};

struct FieldMeta {
  FieldKind kind = FieldKind::Center3D;
  /// Transient fields are intermediates no one outside the program observes;
  /// fusion may demote them to kernel-local temporaries (DaCe's transient
  /// containers).
  bool transient = false;

  [[nodiscard]] long levels(int nk) const {
    switch (kind) {
      case FieldKind::Center3D: return nk;
      case FieldKind::Interface3D: return nk + 1;
      case FieldKind::Plane2D: return 1;
    }
    return nk;
  }
};

/// One node of a dataflow state. The analog of DaCe's library nodes
/// (StencilComputation), tasklets-with-callbacks, and the halo-exchange
/// points of the FV3 state machine (paper Fig. 5).
struct SNode {
  enum class Kind { Stencil, Callback, HaloExchange };

  Kind kind = Kind::Stencil;
  std::string label;

  // Kind::Stencil
  std::shared_ptr<const dsl::StencilFunc> stencil;
  exec::StencilArgs args;
  sched::Schedule schedule;

  // Kind::Callback — escape hatch to arbitrary host code, the analog of the
  // automatic callbacks of Sec. V-B. Ordering is preserved relative to other
  // nodes (the "__pystate" serialization), because states execute nodes in
  // sequence.
  std::function<void(FieldCatalog&)> callback;

  /// Compute-domain extension for this node (GT4Py's per-call `domain=`
  /// argument): producers cover their consumers' offset reads, flux
  /// stencils compute the extra face row, etc.
  exec::DomainExt ext{};

  // Kind::HaloExchange
  std::vector<std::string> halo_fields;
  int halo_width = 3;
  /// Vector exchange: halo_fields holds (u, v) pairs whose components must
  /// be rotated across tile edges.
  bool halo_vector = false;

  static SNode make_stencil(std::string label, dsl::StencilFunc stencil,
                            exec::StencilArgs args = {},
                            sched::Schedule schedule = sched::default_schedule());
  static SNode make_callback(std::string label, std::function<void(FieldCatalog&)> fn);
  static SNode make_halo_exchange(std::string label, std::vector<std::string> fields,
                                  int width = 3, bool vector = false);
};

/// A dataflow state: nodes execute in order (data dependencies within a
/// state are honored by construction order, as the FV3 frontend emits them
/// topologically).
struct State {
  std::string name;
  std::vector<SNode> nodes;
};

/// Control-flow tree over states: sequences and counted loops (the
/// k_split / n_split / tracer loops of Fig. 5).
struct CFNode {
  enum class Kind { State, Sequence, Loop };

  Kind kind = Kind::Sequence;
  int state = -1;  ///< Kind::State: index into Program::states
  long trips = 1;  ///< Kind::Loop
  std::string loop_var;
  std::vector<CFNode> children;

  static CFNode state_ref(int index) {
    CFNode n;
    n.kind = Kind::State;
    n.state = index;
    return n;
  }
  static CFNode sequence(std::vector<CFNode> children = {}) {
    CFNode n;
    n.children = std::move(children);
    return n;
  }
  static CFNode loop(std::string var, long trips, std::vector<CFNode> children) {
    CFNode n;
    n.kind = Kind::Loop;
    n.loop_var = std::move(var);
    n.trips = trips;
    n.children = std::move(children);
    return n;
  }
};

/// Aggregate size statistics of a program (the numbers Sec. V-B reports for
/// the orchestrated dynamical core).
struct ProgramStats {
  long states = 0;
  long dataflow_nodes = 0;   ///< access nodes + tasklets (approximated per op)
  long stencil_nodes = 0;    ///< library nodes
  long stencil_ops = 0;      ///< individual assignments
  long halo_exchanges = 0;
  long callbacks = 0;
  long max_node_invocations = 1;  ///< how often the most-repeated state runs
};

/// Called at HaloExchange nodes; receives field names, halo width, and
/// whether the fields form (u, v) vector pairs needing component rotation.
/// The comm layer registers the actual cubed-sphere exchange here.
using HaloHandler = std::function<void(const std::vector<std::string>&, int, bool)>;

/// A whole orchestrated program: the analog of the full-model SDFG the paper
/// builds for the dynamical core. States hold stencil library nodes;
/// the control-flow tree holds the sub-stepping loops.
class Program {
 public:
  explicit Program(std::string name = "program") : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<State>& states() const { return states_; }
  [[nodiscard]] std::vector<State>& states() { return states_; }
  [[nodiscard]] const CFNode& control_flow() const { return root_; }
  [[nodiscard]] CFNode& control_flow() { return root_; }
  [[nodiscard]] const std::map<std::string, FieldMeta>& field_meta() const {
    return field_meta_;
  }

  /// Append a state and return its index.
  int add_state(State state);

  /// Append a state and a reference to it at the end of the root sequence.
  int append_state(State state);

  void set_field_meta(const std::string& field, FieldMeta meta) { field_meta_[field] = meta; }
  [[nodiscard]] FieldMeta meta_of(const std::string& field) const {
    auto it = field_meta_.find(field);
    return it == field_meta_.end() ? FieldMeta{} : it->second;
  }

  /// Execute the program: walk the control-flow tree, run each state's nodes
  /// in order with the tape executor, dispatch halo exchanges to `halo`.
  void execute(FieldCatalog& catalog, const exec::LaunchDomain& dom,
               const HaloHandler& halo = {}) const;

  /// Execute a single state (used by the distributed lockstep driver, which
  /// interleaves rank execution at halo-exchange states).
  void execute_state(int index, FieldCatalog& catalog, const exec::LaunchDomain& dom,
                     const HaloHandler& halo = {}) const;

  /// State indices in execution order, with loop bodies repeated per trip.
  [[nodiscard]] std::vector<int> flatten_execution_order() const;

  /// How many times each state executes in one program run (product of
  /// enclosing loop trip counts).
  [[nodiscard]] std::vector<long> state_invocations() const;

  [[nodiscard]] ProgramStats stats() const;

  /// GraphViz dump of the control flow + states for debugging.
  [[nodiscard]] std::string to_dot() const;

  /// Execution options: `run.backend` is the one executor selector
  /// (exec::ExecBackend). The Interpreter backend *defines* the DSL
  /// semantics (the analog of GT4Py's debug/numpy backends for pinpointing
  /// codegen bugs) and ignores the thread options: it stays serial by
  /// construction, which is what makes it the oracle every other backend is
  /// diffed against.
  void set_run_options(exec::RunOptions run) { run_options_ = run; }
  [[nodiscard]] const exec::RunOptions& run_options() const { return run_options_; }

  /// Drop compiled-stencil caches (call after mutating stencils in place,
  /// and on per-rank Program copies: copies share the cache shared_ptrs, and
  /// CompiledStencil's temp pool must not be shared across rank threads).
  void invalidate_compiled() const {
    compiled_.clear();
    reference_.clear();
    jit_.reset();
  }

  /// Warm the executor cache of the selected backend for every stencil node
  /// up front, so concurrent rank threads never compile lazily mid-run
  /// (compilation is pure, but doing it on the critical path skews measured
  /// wall-clock).
  void precompile() const;

 private:
  /// Find-or-build the cached executor of one stencil (keyed by identity).
  const exec::RefExecutor& reference_executor(const dsl::StencilFunc& stencil) const;
  const std::shared_ptr<exec::CompiledStencil>& compiled_executor(
      const dsl::StencilFunc& stencil) const;
  void ensure_jit() const;
  void exec_cf(const CFNode& node, FieldCatalog& catalog, const exec::LaunchDomain& dom,
               const HaloHandler& halo) const;
  void exec_state(const State& state, FieldCatalog& catalog, const exec::LaunchDomain& dom,
                  const HaloHandler& halo) const;
  static void count_invocations(const CFNode& node, long mult, std::vector<long>& out);

  std::string name_;
  std::vector<State> states_;
  CFNode root_ = CFNode::sequence();
  std::map<std::string, FieldMeta> field_meta_;
  exec::RunOptions run_options_{};
  /// Executor caches keyed by StencilFunc identity.
  mutable std::map<const dsl::StencilFunc*, std::shared_ptr<exec::CompiledStencil>> compiled_;
  mutable std::map<const dsl::StencilFunc*, std::shared_ptr<exec::RefExecutor>> reference_;
  /// Native-kernel module for the Jit backend (one per Program copy: its
  /// scratch buffer, like the tape temp pool, must not cross rank threads).
  mutable std::shared_ptr<exec::jit::JitProgram> jit_;
};

}  // namespace cyclone::ir
