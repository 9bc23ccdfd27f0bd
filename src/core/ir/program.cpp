#include "core/ir/program.hpp"

#include <sstream>

#include "core/dsl/analysis.hpp"
#include "core/exec/jit/jit.hpp"

namespace cyclone::ir {

SNode SNode::make_stencil(std::string label, dsl::StencilFunc stencil, exec::StencilArgs args,
                          sched::Schedule schedule) {
  SNode n;
  n.kind = Kind::Stencil;
  n.label = std::move(label);
  n.stencil = std::make_shared<const dsl::StencilFunc>(std::move(stencil));
  n.args = std::move(args);
  n.schedule = schedule;
  return n;
}

SNode SNode::make_callback(std::string label, std::function<void(FieldCatalog&)> fn) {
  SNode n;
  n.kind = Kind::Callback;
  n.label = std::move(label);
  n.callback = std::move(fn);
  return n;
}

SNode SNode::make_halo_exchange(std::string label, std::vector<std::string> fields, int width,
                                bool vector) {
  SNode n;
  n.kind = Kind::HaloExchange;
  n.label = std::move(label);
  n.halo_fields = std::move(fields);
  n.halo_width = width;
  n.halo_vector = vector;
  return n;
}

int Program::add_state(State state) {
  states_.push_back(std::move(state));
  return static_cast<int>(states_.size()) - 1;
}

int Program::append_state(State state) {
  const int idx = add_state(std::move(state));
  root_.children.push_back(CFNode::state_ref(idx));
  return idx;
}

void Program::execute(FieldCatalog& catalog, const exec::LaunchDomain& dom,
                      const HaloHandler& halo) const {
  exec_cf(root_, catalog, dom, halo);
}

void Program::exec_cf(const CFNode& node, FieldCatalog& catalog, const exec::LaunchDomain& dom,
                      const HaloHandler& halo) const {
  switch (node.kind) {
    case CFNode::Kind::State:
      CY_REQUIRE_MSG(node.state >= 0 && node.state < static_cast<int>(states_.size()),
                     "control flow references unknown state " << node.state);
      exec_state(states_[node.state], catalog, dom, halo);
      break;
    case CFNode::Kind::Sequence:
      for (const auto& child : node.children) exec_cf(child, catalog, dom, halo);
      break;
    case CFNode::Kind::Loop:
      for (long t = 0; t < node.trips; ++t) {
        for (const auto& child : node.children) exec_cf(child, catalog, dom, halo);
      }
      break;
  }
}

void Program::exec_state(const State& state, FieldCatalog& catalog,
                         const exec::LaunchDomain& dom, const HaloHandler& halo) const {
  for (const auto& node : state.nodes) {
    switch (node.kind) {
      case SNode::Kind::Stencil: {
        exec::LaunchDomain node_dom = dom;
        // Compose the node's own extension with the caller's launch-level
        // extension (the concurrent runtime passes negative extensions to
        // shrink a launch to its interior, or offsets to select a rim strip).
        node_dom.ext.ilo = node.ext.ilo + dom.ext.ilo;
        node_dom.ext.ihi = node.ext.ihi + dom.ext.ihi;
        node_dom.ext.jlo = node.ext.jlo + dom.ext.jlo;
        node_dom.ext.jhi = node.ext.jhi + dom.ext.jhi;
        if (run_options_.backend == exec::ExecBackend::Interpreter) {
          reference_executor(*node.stencil).run(catalog, node.args, node_dom);
          break;
        }
        const exec::CompiledStencil& cs = *compiled_executor(*node.stencil);
        if (run_options_.backend == exec::ExecBackend::Jit) {
          ensure_jit();
          jit_->run(cs, catalog, node.args, node_dom, node.schedule, run_options_);
        } else {
          cs.run(catalog, node.args, node_dom, node.schedule, run_options_);
        }
        break;
      }
      case SNode::Kind::Callback:
        CY_REQUIRE_MSG(node.callback, "callback node '" << node.label << "' has no function");
        node.callback(catalog);
        break;
      case SNode::Kind::HaloExchange:
        if (halo) halo(node.halo_fields, node.halo_width, node.halo_vector);
        break;
    }
  }
}

const exec::RefExecutor& Program::reference_executor(const dsl::StencilFunc& stencil) const {
  auto& slot = reference_[&stencil];
  if (!slot) slot = std::make_shared<exec::RefExecutor>(stencil);
  return *slot;
}

const std::shared_ptr<exec::CompiledStencil>& Program::compiled_executor(
    const dsl::StencilFunc& stencil) const {
  auto& slot = compiled_[&stencil];
  if (!slot) slot = std::make_shared<exec::CompiledStencil>(stencil);
  return slot;
}

void Program::precompile() const {
  const bool interpret = run_options_.backend == exec::ExecBackend::Interpreter;
  for (const auto& state : states_) {
    for (const auto& node : state.nodes) {
      if (node.kind != SNode::Kind::Stencil) continue;
      if (interpret) {
        reference_executor(*node.stencil);
      } else {
        compiled_executor(*node.stencil);
      }
    }
  }
  // Build the native module up front when the Jit backend is selected, so
  // codegen and host compilation never land on the measured critical path.
  if (run_options_.backend == exec::ExecBackend::Jit) ensure_jit();
}

void Program::ensure_jit() const {
  if (jit_) return;
  // One translation unit for the whole program: collect every stencil in
  // deterministic (state, node) order, deduplicated by identity, so the
  // generated source — and hence the cache key — is stable across runs.
  exec::jit::JitProgram::StencilList list;
  for (const auto& state : states_) {
    for (const auto& node : state.nodes) {
      if (node.kind != SNode::Kind::Stencil) continue;
      const auto& cs = compiled_executor(*node.stencil);
      bool seen = false;
      for (const auto& [name, listed] : list) seen |= listed == cs;
      if (!seen) list.emplace_back(node.stencil->name(), cs);
    }
  }
  jit_ = exec::jit::JitProgram::build(name_, list);
}

void Program::execute_state(int index, FieldCatalog& catalog, const exec::LaunchDomain& dom,
                            const HaloHandler& halo) const {
  CY_REQUIRE_MSG(index >= 0 && index < static_cast<int>(states_.size()),
                 "state index " << index << " out of range");
  exec_state(states_[index], catalog, dom, halo);
}

namespace {
void flatten_cf(const CFNode& node, std::vector<int>& out) {
  switch (node.kind) {
    case CFNode::Kind::State:
      out.push_back(node.state);
      break;
    case CFNode::Kind::Sequence:
      for (const auto& child : node.children) flatten_cf(child, out);
      break;
    case CFNode::Kind::Loop:
      for (long t = 0; t < node.trips; ++t) {
        for (const auto& child : node.children) flatten_cf(child, out);
      }
      break;
  }
}
}  // namespace

std::vector<int> Program::flatten_execution_order() const {
  std::vector<int> out;
  flatten_cf(root_, out);
  return out;
}

void Program::count_invocations(const CFNode& node, long mult, std::vector<long>& out) {
  switch (node.kind) {
    case CFNode::Kind::State:
      out[node.state] += mult;
      break;
    case CFNode::Kind::Sequence:
      for (const auto& child : node.children) count_invocations(child, mult, out);
      break;
    case CFNode::Kind::Loop:
      for (const auto& child : node.children) count_invocations(child, mult * node.trips, out);
      break;
  }
}

std::vector<long> Program::state_invocations() const {
  std::vector<long> out(states_.size(), 0);
  count_invocations(root_, 1, out);
  return out;
}

ProgramStats Program::stats() const {
  ProgramStats s;
  s.states = static_cast<long>(states_.size());
  const auto invocations = state_invocations();
  for (size_t idx = 0; idx < states_.size(); ++idx) {
    s.max_node_invocations = std::max(s.max_node_invocations, invocations[idx]);
    for (const auto& node : states_[idx].nodes) {
      switch (node.kind) {
        case SNode::Kind::Stencil: {
          ++s.stencil_nodes;
          const int ops = node.stencil->num_operations();
          s.stencil_ops += ops;
          // Access nodes + tasklets + map entries/exits, approximated from
          // the per-op accesses (reads + 1 write + tasklet + 2 map nodes).
          const dsl::AccessInfo acc = dsl::analyze(*node.stencil);
          s.dataflow_nodes += static_cast<long>(acc.reads.size() + acc.writes.size()) +
                              ops * 3L;
          break;
        }
        case SNode::Kind::Callback:
          ++s.callbacks;
          s.dataflow_nodes += 2;  // tasklet + __pystate container
          break;
        case SNode::Kind::HaloExchange:
          ++s.halo_exchanges;
          s.dataflow_nodes += static_cast<long>(node.halo_fields.size()) * 2;
          break;
      }
    }
  }
  return s;
}

std::string Program::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n  rankdir=TB;\n";
  for (size_t s = 0; s < states_.size(); ++s) {
    os << "  subgraph cluster_" << s << " {\n    label=\"" << states_[s].name << "\";\n";
    for (size_t n = 0; n < states_[s].nodes.size(); ++n) {
      const auto& node = states_[s].nodes[n];
      const char* shape = node.kind == SNode::Kind::Stencil     ? "box"
                          : node.kind == SNode::Kind::Callback ? "octagon"
                                                                : "diamond";
      os << "    s" << s << "n" << n << " [label=\"" << node.label << "\", shape=" << shape
         << "];\n";
      if (n > 0) os << "    s" << s << "n" << n - 1 << " -> s" << s << "n" << n << ";\n";
    }
    os << "  }\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace cyclone::ir
