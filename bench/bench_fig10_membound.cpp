// Fig. 10 reproduction: model-augmented kernel runtimes. The automated
// memory-bound model ranks kernels by summed simulated runtime and reports
// the fraction of peak bandwidth each achieves — first for the cycle-1
// program (before fine tuning), then after the full pipeline, where most
// kernels should sit above 60% of peak (Sec. VI-C).

#include <fstream>

#include "bench_common.hpp"
#include "core/xform/passes.hpp"

using namespace cyclone;

int main() {
  bench::print_header("Fig. 10 — Model-augmented kernel runtimes (P100 model)");

  const fv3::FvConfig cfg = bench::paper_config();
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  const exec::LaunchDomain dom = state.domain();

  tune::TuningOptions topt;
  topt.dom = dom;
  topt.machine = perf::p100();

  // Cycle 1: schedules tuned, nothing else.
  ir::Program prog = fv3::build_dycore_program(state, fv3::DycoreSchedules::defaults());
  tune::autotune_schedules(prog, topt);

  std::printf("\n-- after cycle 1 (schedules only): worst-performing important kernels --\n");
  {
    auto report = perf::bandwidth_report(ir::expand_program(prog, dom), topt.machine);
    // Rank by importance (total runtime), list the lowest-%peak among the
    // top half, like the paper's figure.
    std::printf("%s", perf::format_report(report, 14).c_str());
  }

  // Full pipeline: caching, pow strength reduction, region split, transfer.
  xform::set_vertical_cache(prog, sched::CacheKind::Registers);
  xform::strength_reduce_program(prog);
  xform::set_region_strategy(prog, sched::RegionStrategy::SeparateKernels);
  auto patterns = tune::collect_patterns(
      tune::tune_cutouts(prog, topt, tune::TransformKind::SubgraphFusion));
  auto otf =
      tune::collect_patterns(tune::tune_cutouts(prog, topt, tune::TransformKind::OtfFusion));
  patterns.insert(patterns.end(), otf.begin(), otf.end());
  tune::transfer(prog, patterns, topt);

  std::printf("\n-- after the full pipeline --\n");
  const auto kernels = ir::expand_program(prog, dom);
  const auto report = perf::bandwidth_report(kernels, topt.machine);
  std::printf("%s", perf::format_report(report, 14).c_str());

  // Full data for external plotting of the figure.
  std::ofstream("fig10_kernels.csv") << perf::report_to_csv(report);
  std::printf("\n(full report written to fig10_kernels.csv)\n");

  // Aggregate: how many of the *horizontal* kernels reach 60% of peak
  // (vertical solvers are latency-bound by design, as in the paper's plot).
  int above = 0, total = 0;
  double weighted = 0, time_total = 0;
  for (const auto& row : report) {
    ++total;
    if (row.peak_fraction >= 0.60) ++above;
    weighted += row.peak_fraction * row.total_runtime;
    time_total += row.total_runtime;
  }
  bench::print_rule();
  std::printf("kernels at >= 60%% of peak bandwidth: %d / %d; runtime-weighted mean: %.1f%%\n",
              above, total, 100.0 * weighted / time_total);
  std::printf(
      "Paper: the initial cycle's worst kernels sit at 20-60%% of peak; after\n"
      "further cycles most kernels are above 60%%.\n");
  return 0;
}
