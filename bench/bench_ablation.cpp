// Ablation bench for the design choices DESIGN.md calls out. Not a paper
// table — this quantifies, on our own substrate, the levers the paper's
// pipeline pulls:
//   A. iteration-order / data-layout match (the Sec. VI-A4 layout sweep),
//   B. kernel fusion (thread-level) on the memory-bound transport chain,
//   C. vertical-solver register caching (Sec. VI-A2 local storage).

#include "bench_common.hpp"
#include "core/dsl/builder.hpp"
#include "core/xform/passes.hpp"
#include "fv3/stencils/fv_tp2d.hpp"
#include "fv3/stencils/riem_solver.hpp"

using namespace cyclone;

int main() {
  bench::print_header("Ablations — design-choice sensitivity");

  const auto dom = bench::tile_domain(192, 80);
  ir::Program meta;

  // A. Iteration order vs. the I-contiguous storage layout.
  {
    std::printf("A. iteration order (fv_tp_2d kernel, P100 model; storage is I-contiguous)\n");
    for (Layout order : {Layout::KJI, Layout::IJK, Layout::KIJ}) {
      sched::Schedule s = sched::tuned_horizontal();
      s.iteration_order = order;
      auto node = fv3::fv_tp2d_node("fvt", "q", "fx", "fy", s);
      const double t = bench::model_nodes_gpu({node}, meta, dom, perf::p100());
      std::printf("   order %-4s %12s %s\n", layout_name(order), str::human_time(t).c_str(),
                  order == Layout::KJI ? "(matched: coalesced)" : "(mismatched)");
    }
  }

  // B. Thread-level fusion on/off.
  {
    std::printf("\nB. thread-level fusion (fv_tp_2d)\n");
    for (bool fuse : {false, true}) {
      sched::Schedule s = sched::tuned_horizontal();
      s.fuse_thread_level = fuse;
      auto node = fv3::fv_tp2d_node("fvt", "q", "fx", "fy", s);
      const auto kernels = ir::expand_node(node, meta, dom, 1);
      const double t = perf::model_program(kernels, perf::p100());
      std::printf("   fusion %-3s -> %2zu kernels, %12s\n", fuse ? "on" : "off",
                  kernels.size(), str::human_time(t).c_str());
    }
  }

  // C. Vertical-solver register caching.
  {
    std::printf("\nC. register caching of loop-carried values (riem_solver_c)\n");
    fv3::FvConfig cfg = bench::paper_config();
    for (auto cache : {sched::CacheKind::None, sched::CacheKind::Registers}) {
      sched::Schedule s = sched::tuned_vertical();
      s.vertical_cache = cache;
      const auto nodes = fv3::riem_solver_nodes(cfg, 10.0, s);
      const double t = bench::model_nodes_gpu(nodes, meta, dom, perf::p100());
      std::printf("   cache %-9s %12s\n",
                  cache == sched::CacheKind::None ? "none" : "registers",
                  str::human_time(t).c_str());
    }
  }

  return 0;
}
