// Table II (right) reproduction: Finite Volume Transport (fv_tp_2d) across
// growing domains. The FORTRAN version relies heavily on CPU caches
// (k-blocking keeps the 2-D pipeline resident), so its scaling collapses
// once the planes outgrow the cache; the GPU version starts underutilized
// and converges toward the bandwidth ratio.

#include "bench_common.hpp"
#include "baseline/kernels.hpp"
#include "core/util/rng.hpp"
#include "fv3/stencils/fv_tp2d.hpp"

using namespace cyclone;

int main() {
  bench::print_header("Table II (right) — Finite Volume Transport fv_tp_2d");

  const int sizes[] = {128, 192, 256, 384};
  const int npz = 80;

  ir::Program meta;
  meta.set_field_meta("crx", ir::FieldMeta{ir::FieldKind::Center3D, true});
  meta.set_field_meta("cry", ir::FieldMeta{ir::FieldKind::Center3D, true});

  double cpu_base = 0, gpu_base = 0;
  std::printf("%-18s | %12s %8s | %12s %8s | %9s | %12s\n", "domain", "FORTRAN(sim)",
              "scaling", "DaCe(sim)", "scaling", "speedup", "host meas.");
  for (int n : sizes) {
    const auto dom = bench::tile_domain(n, npz);
    std::vector<ir::SNode> nodes = {
        fv3::fv_tp2d_node("fvt", "q", "fx", "fy", sched::tuned_horizontal()),
        fv3::flux_update_node("fvt_update", "q", "fx", "fy", sched::tuned_horizontal())};

    const double cpu = bench::model_nodes_cpu(nodes, meta, dom, perf::haswell());
    const double gpu = bench::model_nodes_gpu(nodes, meta, dom, perf::p100());
    if (cpu_base == 0) {
      cpu_base = cpu;
      gpu_base = gpu;
    }

    FieldCatalog cat;
    for (const char* name : {"q", "crx", "cry", "fx", "fy"}) cat.create(name, n, n, npz);
    Rng rng(2);
    cat.at("q").fill_with([&](int, int, int) { return rng.uniform(0.0, 1.0); });
    cat.at("crx").fill(0.2);
    cat.at("cry").fill(-0.2);
    const Timing measured = time_reps(bench::kReps, [&] {
      baseline::fv_tp_2d(cat, dom, "q", "fx", "fy");
      baseline::flux_update(cat, dom, "q", "fx", "fy");
    });

    std::printf("%4dx%4dx%-3d (%3.2fx) | %12s %7.2fx | %12s %7.2fx | %8.2fx | %12s\n", n, n,
                npz, static_cast<double>(n) * n / (128.0 * 128.0),
                str::human_time(cpu).c_str(), cpu / cpu_base, str::human_time(gpu).c_str(),
                gpu / gpu_base, cpu / gpu, str::human_time(measured.median).c_str());
  }
  bench::print_rule();
  std::printf(
      "Paper: FORTRAN 3.41/12.31/35.79/106.66 ms (scaling 1/3.61/10.49/31.27 — steep\n"
      "cache fall-off), DaCe 1.81/3.41/5.67/13.10 ms (scaling 1/1.88/3.13/7.23),\n"
      "speedup 1.88x -> 8.14x. Shapes: small domains nearly tie (CPU caches win),\n"
      "large domains approach the DRAM bandwidth ratio.\n");
  return 0;
}
