// Dycore set-up, checked forecast segments, and the traced lockstep step
// with the per-layer metrics it yields.
#include "models.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "comm/runtime.hpp"
#include "core/ir/expand.hpp"
#include "core/perf/machine.hpp"
#include "core/perf/model.hpp"

namespace perfbench {

using namespace cyclone;

namespace {

/// Compute states of the dycore program, one per-layer metric each. Fixed
/// here so the metric set does not follow the program: a state the program
/// no longer has reports 0 with a note.
const std::vector<std::string>& dycore_states() {
  static const std::vector<std::string> names = {
      "c_sw", "riem_solver_c", "pressure", "nh_p_grad", "d_sw",           "update_dz",
      "riem_solver3", "tracer_2d", "fillz", "remap",  "rayleigh_damping"};
  return names;
}

std::vector<comm::RankDomain> rank_domains(fv3::DistributedModel& model) {
  std::vector<comm::RankDomain> ranks;
  for (int r = 0; r < model.num_ranks(); ++r) {
    ranks.push_back(comm::RankDomain{&model.state(r).catalog(), model.state(r).domain()});
  }
  return ranks;
}

/// The self-test's corrupted output: flip the lowest bit of one value.
void flip_bit(FieldD& field) {
  double v = field(0, 0, 0);
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof bits);
  field(0, 0, 0) = v;
}

/// Per-layer totals of traced steps.
struct LayerTotals {
  explicit LayerTotals(size_t states) : state_s(states, 0.0) {}

  std::vector<double> state_s;  ///< compute seconds per state index
  std::vector<double> step_s;   ///< duration of each traced step
  double compute_s = 0;
  double halo_s = 0;
  long calls = 0;     ///< execute_state calls (one state on one rank)
  long launches = 0;  ///< stencil launches inside those calls
  long messages = 0;
  long bytes = 0;

  [[nodiscard]] double steps() const { return static_cast<double>(step_s.size()); }
};

/// One step of comm::run_lockstep_step rebuilt from the same public calls
/// (flatten_execution_order, is_halo_only, run_halo_node, execute_state)
/// with a span around each, so compute and halo time split per state.
void traced_step(fv3::DistributedModel& model, std::vector<comm::RankDomain>& ranks,
                 const std::vector<int>& order, Tracer& tracer, LayerTotals& acc) {
  const ir::Program& program = model.program();
  Span step(&tracer, "step");
  for (int sidx : order) {
    const ir::State& st = program.states()[static_cast<size_t>(sidx)];
    if (comm::is_halo_only(st)) {
      const long messages = model.comm().total_messages();
      const long bytes = model.comm().total_bytes();
      Span halo(&tracer, "halo." + st.name);
      for (const auto& node : st.nodes) {
        comm::run_halo_node(model.halo_updater(), node, ranks, model.comm());
      }
      acc.halo_s += halo.stop();
      acc.messages += model.comm().total_messages() - messages;
      acc.bytes += model.comm().total_bytes() - bytes;
      continue;
    }
    long stencils = 0;
    for (const auto& node : st.nodes) stencils += node.kind == ir::SNode::Kind::Stencil;
    Span state(&tracer, "exec." + st.name);
    for (auto& rd : ranks) {
      Span call(&tracer, "execute_state");
      program.execute_state(sidx, *rd.catalog, rd.dom);
      const double s = call.stop();
      acc.state_s[static_cast<size_t>(sidx)] += s;
      acc.compute_s += s;
      ++acc.calls;
      acc.launches += stencils;
    }
  }
  acc.step_s.push_back(step.stop());
}

}  // namespace

exec::RunOptions jit_run(int threads) {
  exec::RunOptions run;
  run.backend = exec::ExecBackend::Jit;
  run.num_threads = threads;
  return run;
}

Snapshot::Snapshot(fv3::DistributedModel& model, std::vector<std::string> names)
    : names_(std::move(names)) {
  fields_.reserve(static_cast<size_t>(model.num_ranks()) * names_.size());
  for (int r = 0; r < model.num_ranks(); ++r) {
    for (const auto& name : names_) fields_.push_back(model.state(r).catalog().at(name));
  }
}

void Snapshot::restore(fv3::DistributedModel& model) const {
  size_t i = 0;
  for (int r = 0; r < model.num_ranks(); ++r) {
    for (const auto& name : names_) model.state(r).catalog().at(name).copy_from(fields_[i++]);
  }
}

Ready set_up(const fv3::FvConfig& cfg, int ranks, const InitFn& init,
             std::vector<uint64_t> reference, int threads, Tracer& tracer) {
  Ready r;
  r.prognostics = fv3::ModelState::prognostic_names(cfg.ntracers);
  r.reference = std::move(reference);
  {
    Span span(&tracer, "model.build");
    r.model = std::make_unique<fv3::DistributedModel>(cfg, ranks);
    r.model->set_run_options(jit_run(threads));
    r.build_s = span.stop();
  }
  {
    Span span(&tracer, "model.init");
    init(*r.model);
    r.init_s = span.stop();
  }
  {
    Span span(&tracer, "jit.precompile");
    r.model->program().precompile();
    r.precompile_s = span.stop();
  }
  r.initial = std::make_unique<Snapshot>(*r.model, r.prognostics);
  {
    Span span(&tracer, "model.warmup_step");
    r.model->step();
    r.warmup_s = span.stop();
  }
  return r;
}

bool run_segment(Ready& r, std::vector<double>& step_s, bool corrupt) {
  r.initial->restore(*r.model);
  for (int i = 0; i < kSegmentSteps; ++i) {
    const Clock::time_point t0 = Clock::now();
    r.model->step();
    step_s.push_back(seconds_since(t0));
  }
  if (corrupt) flip_bit(r.model->state(0).catalog().at(r.prognostics.front()));
  return checksums(*r.model, r.prognostics) == r.reference;
}

void layer_sweep(Ready& r, const Options& opt, double budget_s, const CopyRoof& roof,
                 Tracer& tracer, RunResult& res) {
  fv3::DistributedModel& model = *r.model;
  const ir::Program& program = model.program();
  std::vector<comm::RankDomain> ranks = rank_domains(model);
  const std::vector<int> order = program.flatten_execution_order();
  const size_t nstates = program.states().size();
  auto pool_counts = [&] {
    long allocations = 0, reuses = 0;
    for (int rank = 0; rank < model.num_ranks(); ++rank) {
      allocations += model.halo_updater().pool_allocations(rank);
      reuses += model.halo_updater().pool_reuses(rank);
    }
    return std::make_pair(allocations, reuses);
  };

  LayerTotals traced(nstates);
  std::vector<double> untraced;
  const auto [alloc0, reuse0] = pool_counts();
  const Clock::time_point t0 = Clock::now();
  do {
    res.check(run_segment(r, untraced, false), "untraced segment");
    r.initial->restore(model);
    for (int i = 0; i < kSegmentSteps; ++i) traced_step(model, ranks, order, tracer, traced);
    res.check(checksums(model, r.prognostics) == r.reference,
              "traced lockstep segment (rebuilt loop vs model.step() reference)");
  } while (seconds_since(t0) < budget_s);
  const auto [alloc1, reuse1] = pool_counts();

  // The speedup segments run with tracing off, so the trace and its
  // self-time table hold only the segments the other metrics come from.
  const exec::RunOptions base = model.run_options();
  Tracer off(false);
  auto compute_at = [&](int threads) {
    exec::RunOptions run = base;
    run.num_threads = threads;
    model.set_run_options(run);
    LayerTotals acc(nstates);
    r.initial->restore(model);
    for (int i = 0; i < kSegmentSteps; ++i) traced_step(model, ranks, order, off, acc);
    res.check(checksums(model, r.prognostics) == r.reference,
              "traced segment at " + std::to_string(threads) + " thread(s)");
    return acc.compute_s;
  };
  const double serial_s = compute_at(1);
  const double parallel_s = compute_at(opt.threads);
  model.set_run_options(base);

  // Computed bytes and P100-model time per state and step, over all ranks.
  const std::vector<long> invocations = program.state_invocations();
  std::vector<double> bytes(nstates, 0.0), p100_s(nstates, 0.0);
  for (size_t s = 0; s < nstates; ++s) {
    const ir::State& st = program.states()[s];
    if (invocations[s] == 0 || comm::is_halo_only(st)) continue;
    for (const auto& rd : ranks) {
      for (const auto& node : st.nodes) {
        if (node.kind != ir::SNode::Kind::Stencil) continue;
        const std::vector<ir::KernelDesc> kernels = ir::expand_node(node, program, rd.dom, 1);
        for (const auto& k : kernels) bytes[s] += perf::unique_bytes(k);
        p100_s[s] += perf::model_program(kernels, perf::p100());
      }
    }
    bytes[s] *= static_cast<double>(invocations[s]);
    p100_s[s] *= static_cast<double>(invocations[s]);
  }

  const double steps = traced.steps();
  double total_bytes = 0, total_p100 = 0;
  for (size_t s = 0; s < nstates; ++s) {
    total_bytes += bytes[s];
    total_p100 += p100_s[s];
  }
  const double gbps = total_bytes / (traced.compute_s / steps) / 1e9;

  std::printf("\ntraced lockstep step (%g traced steps, %d ranks, %d threads):\n", steps,
              model.num_ranks(), opt.threads);
  std::printf("  %-18s %6s %10s %7s %12s %9s %7s %14s\n", "state", "calls", "ms/step", "share",
              "computed MB", "GB/s", "%roof", "P100 model ms");
  std::vector<size_t> ranked;
  for (size_t s = 0; s < nstates; ++s) {
    if (traced.state_s[s] > 0) ranked.push_back(s);
  }
  std::sort(ranked.begin(), ranked.end(),
            [&](size_t a, size_t b) { return traced.state_s[a] > traced.state_s[b]; });
  for (size_t s : ranked) {
    const double sec = traced.state_s[s] / steps;
    const double sg = bytes[s] / sec / 1e9;
    std::printf("  %-18s %6ld %10.3f %6.1f%% %12.2f %9.2f %6.1f%% %14.4f\n",
                program.states()[s].name.c_str(), invocations[s] * model.num_ranks(), 1e3 * sec,
                100.0 * traced.state_s[s] / traced.compute_s, bytes[s] / 1e6, sg,
                100.0 * sg / roof.gbps, 1e3 * p100_s[s]);
  }
  const double halo_share = traced.halo_s / (traced.halo_s + traced.compute_s);
  std::printf("  compute %.3f ms/step, halo %.3f ms/step (%.1f%% of the step), %.0f messages/step\n",
              1e3 * traced.compute_s / steps, 1e3 * traced.halo_s / steps, 100.0 * halo_share,
              static_cast<double>(traced.messages) / steps);
  std::printf("  P100 model column is the analytic model, not a measurement\n");

  res.add("exec.compute_ms", 1e3 * traced.compute_s / steps, "ms");
  res.add("exec.state_calls", static_cast<double>(traced.calls) / steps, "count");
  res.add("exec.launches", static_cast<double>(traced.launches) / steps, "count");
  res.add("exec.us_per_call", 1e6 * traced.compute_s / static_cast<double>(traced.calls), "us");
  res.add("exec.speedup_1to3", serial_s / parallel_s, "x");
  res.add("exec.gbps_computed", gbps, "GB/s");
  res.add("exec.roof_frac", gbps / roof.gbps, "ratio");
  res.add("exec.p100_model_ms", 1e3 * total_p100, "ms");
  for (const std::string& name : dycore_states()) {
    size_t idx = nstates;
    for (size_t s = 0; s < nstates; ++s) {
      if (program.states()[s].name == name) idx = s;
    }
    double ms = 0, sg = 0;
    if (idx < nstates && traced.state_s[idx] > 0) {
      ms = 1e3 * traced.state_s[idx] / steps;
      sg = bytes[idx] / (traced.state_s[idx] / steps) / 1e9;
    } else {
      res.notes.push_back("state '" + name + "' not in the program: its metrics read 0");
    }
    res.add("exec.state." + name + "_ms", ms, "ms");
    res.add("exec.gbps_computed." + name, sg, "GB/s");
    res.add("exec.roof_frac." + name, sg / roof.gbps, "ratio");
  }
  const long pooled = (alloc1 - alloc0) + (reuse1 - reuse0);
  res.add("halo.ms", 1e3 * traced.halo_s / steps, "ms");
  res.add("halo.messages", static_cast<double>(traced.messages) / steps, "count");
  res.add("halo.bytes", static_cast<double>(traced.bytes) / steps, "B");
  res.add("halo.us_per_message", 1e6 * traced.halo_s / static_cast<double>(traced.messages), "us");
  res.add("halo.pool_reuse_ratio",
          pooled > 0 ? static_cast<double>(reuse1 - reuse0) / static_cast<double>(pooled) : 0.0,
          "ratio");
  const double traced_p50 = quantile(traced.step_s, 0.5);
  const double untraced_p50 = quantile(untraced, 0.5);
  std::printf("  tracing overhead: traced step p50 %.3f ms vs untraced p50 %.3f ms (x%.4f)\n",
              1e3 * traced_p50, 1e3 * untraced_p50, traced_p50 / untraced_p50);
  res.add("trace.overhead", traced_p50 / untraced_p50, "ratio");
}

}  // namespace perfbench
