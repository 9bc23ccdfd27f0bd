#include "core/orch/orchestrate.hpp"

#include "core/util/strings.hpp"
#include "core/xform/fusion.hpp"

namespace cyclone::orch {

OrchestrationReport orchestrate(ir::Program& program) {
  OrchestrationReport report;
  int node_id = 0;
  for (auto& state : program.states()) {
    for (auto& node : state.nodes) {
      switch (node.kind) {
        case ir::SNode::Kind::Callback:
          ++report.callbacks_registered;
          break;
        case ir::SNode::Kind::HaloExchange:
          break;
        case ir::SNode::Kind::Stencil: {
          ++report.stencils_processed;
          report.params_propagated += static_cast<int>(node.args.params.size());
          report.bindings_resolved += static_cast<int>(node.args.bind.size());
          // resolve_node performs closure resolution + constant propagation
          // + folding in one pass; a unique temp prefix keeps temporaries
          // collision-free across the whole program.
          dsl::StencilFunc resolved =
              xform::resolve_node(node, str::numbered("o", node_id++) + "__");
          node.stencil = std::make_shared<const dsl::StencilFunc>(std::move(resolved));
          node.args = exec::StencilArgs{};
          break;
        }
      }
    }
  }
  program.invalidate_compiled();
  report.stats = program.stats();
  return report;
}

OrchestrationReport orchestrate(ir::Program& program, const OrchestrateOptions& options) {
  if (!options.verify_equivalence) return orchestrate(program);

  const ir::Program snapshot = program;
  OrchestrationReport report = orchestrate(program);
  const auto verdict = verify::check_equivalent(verify::without_callbacks(snapshot),
                                                verify::without_callbacks(program),
                                                options.verify);
  report.verified = verdict.equivalent;
  if (!verdict.equivalent) {
    report.verify_failure = verdict.first_failure();
    program = snapshot;  // roll back: never hand out a miscompiled program
    program.invalidate_compiled();
  }
  return report;
}

}  // namespace cyclone::orch
