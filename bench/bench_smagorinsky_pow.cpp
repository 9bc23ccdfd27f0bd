// Sec. VI-C1 reproduction: the Smagorinsky-diffusion power-operator case
// study. The stencil `vort = dt * (delpc**2 + vort**2) ** 0.5` compiles to
// general-purpose pow calls; the strength-reduction transformation converts
// them into multiplies and sqrt. The paper reports the kernel dropping from
// 511.16 us to 129.02 us (99.68% modeled bandwidth utilization after) and a
// 1.81% whole-step speedup. We report the same three numbers from the model
// plus a real measured column (the tape executor pays for pow on this host
// exactly like generated CUDA did on the GPU).

#include "bench_common.hpp"
#include "core/util/rng.hpp"
#include "core/xform/passes.hpp"
#include "fv3/stencils/d_sw.hpp"

using namespace cyclone;

int main() {
  bench::print_header("Sec. VI-C1 — Smagorinsky diffusion power-operator case study");

  const fv3::FvConfig cfg = bench::paper_config();
  const auto dom = bench::tile_domain(cfg.npx, cfg.npz);
  ir::Program meta;

  ir::SNode node = ir::SNode::make_stencil("smagorinsky_diffusion",
                                           fv3::build_smagorinsky_diffusion(), [] {
                                             exec::StencilArgs args;
                                             args.params["dt"] = 18.75;
                                             return args;
                                           }(),
                                           sched::tuned_horizontal());

  auto kernel_time = [&](const ir::SNode& n) {
    const auto kernels = ir::expand_node(n, meta, dom, 1);
    return perf::model_kernel(kernels[0], perf::p100());
  };
  auto measure = [&](const ir::SNode& n) {
    FieldCatalog cat;
    Rng rng(4);
    cat.create("delpc", cfg.npx, cfg.npx, cfg.npz)
        .fill_with([&](int, int, int) { return rng.uniform(-1e-4, 1e-4); });
    cat.create("vort", cfg.npx, cfg.npx, cfg.npz)
        .fill_with([&](int, int, int) { return rng.uniform(-1e-4, 1e-4); });
    exec::CompiledStencil cs(*n.stencil);
    return time_reps(bench::kReps, [&] { cs.run(cat, n.args, dom); }).median;
  };

  const perf::KernelTime before = kernel_time(node);
  const double measured_before = measure(node);

  ir::SNode reduced = node;
  {
    ir::Program tmp;
    tmp.append_state(ir::State{"s", {node}});
    const int rewrites = xform::strength_reduce_program(tmp);
    reduced = tmp.states()[0].nodes[0];
    std::printf("pow sites rewritten: %d (x**2 -> x*x, (...)**0.5 -> sqrt)\n\n", rewrites);
  }
  const perf::KernelTime after = kernel_time(reduced);
  const double measured_after = measure(reduced);

  std::printf("%-26s %14s %14s %10s\n", "", "modeled (P100)", "utilization", "host meas.");
  std::printf("%-26s %14s %13.2f%% %10s\n", "with general pow",
              str::human_time(before.simulated).c_str(), 100 * before.utilization(),
              str::human_time(measured_before).c_str());
  std::printf("%-26s %14s %13.2f%% %10s\n", "strength-reduced",
              str::human_time(after.simulated).c_str(), 100 * after.utilization(),
              str::human_time(measured_after).c_str());
  std::printf("kernel speedup: modeled %.2fx, measured %.2fx\n",
              before.simulated / after.simulated, measured_before / measured_after);

  // Whole-step effect.
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  ir::Program prog = fv3::build_dycore_program(state, fv3::DycoreSchedules::tuned());
  const double step_before =
      perf::model_program(ir::expand_program(prog, state.domain()), perf::p100());
  xform::strength_reduce_program(prog);
  const double step_after =
      perf::model_program(ir::expand_program(prog, state.domain()), perf::p100());
  bench::print_rule();
  std::printf("whole-step effect: %s -> %s (%.2f%% speedup)\n",
              str::human_time(step_before).c_str(), str::human_time(step_after).c_str(),
              (step_before / step_after - 1.0) * 100.0);
  std::printf(
      "Paper: 511.16 us -> 129.02 us (3.96x), 99.68%% utilization after, 1.81%%\n"
      "whole-step speedup.\n");
  return 0;
}
