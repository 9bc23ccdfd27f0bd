// Table II (left) reproduction: the Riemann solver (riem_solver_c) across
// growing domains. Columns:
//   * FORTRAN  — simulated Haswell time of the k/column-blocked schedule
//                (cache-capacity model) + measured wall time of the real
//                baseline loop implementation on this host (sanity column),
//   * GT4Py+DaCe — simulated P100 time of the expanded, tuned stencil nodes.
// The shapes to reproduce: the CPU scales worse than the grid-point ratio
// (cache fall-off), the GPU scales *better* at small sizes (underutilized
// 2-D thread grids), speedups grow toward the bandwidth ratio.

#include "bench_common.hpp"
#include "baseline/kernels.hpp"
#include "core/util/rng.hpp"
#include "fv3/stencils/riem_solver.hpp"

using namespace cyclone;

int main() {
  bench::print_header("Table II (left) — Riemann Solver riem_solver_c");

  const int sizes[] = {128, 192, 256, 384};
  const int npz = 80;
  const double dta = 10.0;

  fv3::FvConfig cfg = bench::paper_config();
  ir::Program meta;  // riem fields are all Center3D

  double cpu_base = 0, gpu_base = 0;
  std::printf("%-18s | %12s %8s | %12s %8s | %9s | %12s\n", "domain", "FORTRAN(sim)",
              "scaling", "DaCe(sim)", "scaling", "speedup", "host meas.");
  for (int n : sizes) {
    const auto dom = bench::tile_domain(n, npz);
    const auto nodes = fv3::riem_solver_nodes(cfg, dta, sched::tuned_vertical());

    const double cpu = bench::model_nodes_cpu(nodes, meta, dom, perf::haswell());
    const double gpu = bench::model_nodes_gpu(nodes, meta, dom, perf::p100());
    if (cpu_base == 0) {
      cpu_base = cpu;
      gpu_base = gpu;
    }

    // Measured wall time of the baseline loop implementation on this host
    // (absolute value is host-dependent; the scaling column is the signal).
    FieldCatalog cat;
    for (const char* name : {"delz", "w", "delp", "pp"}) cat.create(name, n, n, npz);
    Rng rng(1);
    cat.at("delz").fill_with([&](int, int, int) { return rng.uniform(200.0, 600.0); });
    cat.at("w").fill_with([&](int, int, int) { return rng.uniform(-2.0, 2.0); });
    cat.at("delp").fill(1.2e4);
    const Timing measured =
        time_reps(bench::kReps, [&] { baseline::riem_solver_c(cat, dom, cfg, dta); });

    std::printf("%4dx%4dx%-3d (%3.2fx) | %12s %7.2fx | %12s %7.2fx | %8.2fx | %12s\n", n, n,
                npz, static_cast<double>(n) * n / (128.0 * 128.0),
                str::human_time(cpu).c_str(), cpu / cpu_base, str::human_time(gpu).c_str(),
                gpu / gpu_base, cpu / gpu, str::human_time(measured.median).c_str());
  }
  bench::print_rule();
  std::printf(
      "Paper: FORTRAN 12.27/27.94/52.40/121.80 ms (scaling 1/2.28/4.27/9.92),\n"
      "DaCe 1.85/3.86/6.96/15.31 ms (scaling 1/2.08/3.76/8.26), speedup 6.63-7.96x.\n"
      "Shapes: CPU super-linear past cache capacity, GPU sub-linear (underutilized\n"
      "2-D grids), speedup increasing with domain size.\n");
  return 0;
}
