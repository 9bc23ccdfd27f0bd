// Dycore workloads: a lockstep fv3::DistributedModel running the baroclinic
// wave on the JIT backend, measured as back-to-back checked forecast
// segments (rewind to the initial state, kSegmentSteps x model.step(),
// compare every prognostic checksum with the reference interpreter's).
#include <cstdio>
#include <stdexcept>

#include "core/exec/jit/cache.hpp"
#include "ensemble/service.hpp"
#include "fv3/init/baroclinic.hpp"
#include "models.hpp"

namespace perfbench {

using namespace cyclone;

namespace {

struct DycoreShape {
  int npx = 0;
  int npz = 0;
  int ranks = 0;
  ProbeShape probe;  ///< the rank blocks, about the working set of the model
};

DycoreShape shape_of(const std::string& workload) {
  // 48x48x64 per rank: 437 MiB of fields, 1.46x the 300 MiB LLC. At 32
  // levels (220 MiB) the step time hung on how much of the shared LLC the
  // host's other tenants left it.
  if (workload == "dycore_c48") return {48, 64, 6, {6, 48, 64, 440, 42.0}};
  // 12x12x16 per rank: 64 MiB of fields.
  if (workload == "dycore_c24r24") return {24, 16, 24, {24, 12, 16, 64, 12.0}};
  throw std::invalid_argument("unknown dycore workload '" + workload + "'");
}

fv3::FvConfig config_of(const DycoreShape& shape) {
  // The service's standard dycore (k_split = 1, dt = 300 s) with 4 tracers
  // and 3 acoustic substeps.
  fv3::FvConfig cfg = ensemble::standard_dycore_config(shape.npx, shape.npz, 4);
  cfg.n_split = 3;
  return cfg;
}

std::string describe(const DycoreShape& shape) {
  const fv3::FvConfig cfg = config_of(shape);
  return "c" + std::to_string(cfg.npx) + "z" + std::to_string(cfg.npz) + " ranks=" +
         std::to_string(shape.ranks) + " ntracers=" + std::to_string(cfg.ntracers) +
         " k_split=" + std::to_string(cfg.k_split) + " n_split=" + std::to_string(cfg.n_split) +
         " segment_steps=" + std::to_string(kSegmentSteps);
}

void init(fv3::DistributedModel& model) { fv3::init_baroclinic(model); }

}  // namespace

void prepare_dycore(const Options& opt) {
  const DycoreShape shape = shape_of(opt.workload);
  const fv3::FvConfig cfg = config_of(shape);
  Record rec;
  rec["config"] = describe(shape);
  {
    // Cold compile into this workload's emptied JIT cache.
    fv3::DistributedModel model(cfg, shape.ranks);
    model.set_run_options(jit_run(opt.threads));
    const Clock::time_point t0 = Clock::now();
    model.program().precompile();
    rec["jit.compile_s"] = std::to_string(seconds_since(t0));
    const exec::jit::CacheStats st = exec::jit::KernelCache::global().stats();
    if (st.compiles + st.disk_hits == 0) {
      throw std::runtime_error("no native JIT module was built (is a host compiler available?)");
    }
    rec["jit.cold_compiles"] = std::to_string(st.compiles);
  }
  prime_copy_roof(opt.threads);
  {
    // The reference interpreter defines the semantics every backend must
    // match bit for bit.
    exec::RunOptions ref;
    ref.backend = exec::ExecBackend::Interpreter;
    fv3::DistributedModel model(cfg, shape.ranks);
    model.set_run_options(ref);
    init(model);
    for (int i = 0; i < kSegmentSteps; ++i) model.step();
    rec["reference"] = join_hex(checksums(model, fv3::ModelState::prognostic_names(cfg.ntracers)));
  }
  write_record(prep_path(opt), rec);
  std::printf("prepared %s: %s, cold compile %s s\n", opt.workload.c_str(),
              rec["config"].c_str(), rec["jit.compile_s"].c_str());
}

RunResult run_dycore(const Options& opt, const Context& ctx, Tracer& tracer) {
  const DycoreShape shape = shape_of(opt.workload);
  const Record prep = read_record(prep_path(opt));
  require_config(prep, describe(shape));
  const std::vector<uint64_t> reference = split_hex(prep.at("reference"));
  RunResult res;
  res.context.emplace_back("config", describe(shape));

  // Set-up drops the in-memory module table first, so the JIT module loads
  // from the warm disk cache, as in a fresh process.
  std::vector<double> setup_s;
  auto fresh = [&] {
    exec::jit::KernelCache::global().clear_memory();
    Ready r = set_up(config_of(shape), shape.ranks, init, reference, opt.threads, tracer);
    setup_s.push_back(r.setup_s());
    return r;
  };
  Ready ready = fresh();
  const double bytes = model_bytes(*ready.model);
  std::printf("working set (computed): %.1f MiB of model fields vs LLC %s (%.2fx)\n",
              bytes / (1 << 20), ctx.llc_text.c_str(),
              ctx.llc_bytes > 0 ? bytes / static_cast<double>(ctx.llc_bytes) : 0.0);
  res.context.emplace_back("working_set_bytes", std::to_string(static_cast<long>(bytes)));

  if (opt.trace) {
    const CopyRoof roof = measure_copy_roof(opt.threads, ctx.llc_bytes, tracer);
    add_roof_metrics(res, roof, ctx);
    layer_sweep(ready, opt, opt.seconds, roof, tracer, res);
    res.add("model.build_ms", 1e3 * ready.build_s, "ms");
    res.add("model.init_ms", 1e3 * ready.init_s, "ms");
    add_jit_metrics(res, prep, ready.precompile_s);
    add_not_applicable(res,
                       {{"ensemble.swe.build_ms", 0, "ms"},
                        {"ensemble.swe.init_ms", 0, "ms"},
                        {"ensemble.swe.step_ms", 0, "ms"},
                        {"ensemble.dycore.build_ms", 0, "ms"},
                        {"ensemble.dycore.init_ms", 0, "ms"},
                        {"ensemble.dycore.step_ms", 0, "ms"},
                        {"service.queue_ms.p50", 0, "ms"},
                        {"service.queue_ms.p90", 0, "ms"},
                        {"service.run_ms.p50", 0, "ms"},
                        {"service.batch_members.mean", 0, "count"},
                        {"service.coalesce_ratio", 0, "ratio"},
                        {"service.busy_frac", 0, "ratio"}},
                       "no ensemble runner or service on a dycore workload");
    return res;
  }

  // Peak memory of the program alone: after set-up and one checked
  // segment, before the probe's fields exist.
  {
    std::vector<double> unused;
    res.check(run_segment(ready, unused, false), "forecast segment");
  }
  res.add("peak_rss_mb", peak_rss_mb(), "MB");

  // The measured loop is split evenly over kSetupReps models, each built
  // and set up afresh (and timed as set-up), so the steps come from several
  // memory placements, not one. A probe pass runs between consecutive
  // segments; a segment's times are scaled by the probe's reference pass
  // time over the mean of the two passes around it.
  const Clock::time_point t_measure = Clock::now();
  Probe probe(shape.probe, opt.threads);
  std::vector<double> steps, latency, raw_steps, probe_s;
  double scaled_busy = 0;
  bool corrupt = opt.corrupt;
  for (int m = 0; m < kSetupReps; ++m) {
    if (m > 0) {
      ready = Ready{};
      ready = fresh();
    }
    probe_s.push_back(probe.pass());
    const Clock::time_point t0 = Clock::now();
    do {
      std::vector<double> st;
      const Clock::time_point ts = Clock::now();
      bool ok = false;
      try {
        ok = run_segment(ready, st, corrupt);
      } catch (const std::exception& e) {
        res.notes.push_back(std::string("segment threw: ") + e.what());
      }
      const double segment = seconds_since(ts);
      res.check(ok, "forecast segment");
      corrupt = false;
      const double before = probe_s.back();
      probe_s.push_back(probe.pass());
      const double scale = 1e-3 * shape.probe.reference_ms / (0.5 * (before + probe_s.back()));
      for (double x : st) {
        raw_steps.push_back(x);
        steps.push_back(x * scale);
      }
      latency.push_back(segment * scale);
      scaled_busy += segment * scale;
    } while (seconds_since(t0) < opt.seconds / kSetupReps);
  }
  const double wall = seconds_since(t_measure);

  const double probe_ms = 1e3 * quantile(probe_s, 0.5);
  std::printf("measured %zu steps in %zu checked segments of %d steps on %d models over %.2f s\n",
              steps.size(), latency.size(), kSegmentSteps, kSetupReps, wall);
  std::printf("raw: step p50 %.3f ms p90 %.3f ms (unscaled)\n", 1e3 * quantile(raw_steps, 0.5),
              1e3 * quantile(raw_steps, 0.9));
  std::printf("machine-speed probe: %zu passes, median %.3f ms vs reference %.3f ms\n",
              probe_s.size(), probe_ms, shape.probe.reference_ms);
  res.context.emplace_back("probe_reference_ms", std::to_string(shape.probe.reference_ms));
  res.context.emplace_back("probe_median_ms", std::to_string(probe_ms));
  res.add("setup_s", quantile(setup_s, 0.5), "s");
  res.add("step_ms.p50", 1e3 * quantile(steps, 0.5), "ms");
  res.add("step_ms.p90", 1e3 * quantile(steps, 0.9), "ms");
  res.add("latency_ms.p50", 1e3 * quantile(latency, 0.5), "ms");
  res.add("latency_ms.p90", 1e3 * quantile(latency, 0.9), "ms");
  res.add("req_per_s", static_cast<double>(latency.size()) / scaled_busy, "1/s");
  res.add("member_steps_per_s", static_cast<double>(steps.size()) / scaled_busy, "1/s");
  return res;
}

}  // namespace perfbench
