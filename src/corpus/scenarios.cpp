#include "corpus/scenarios.hpp"

#include <cstdlib>

#include "core/util/strings.hpp"
#include "ensemble/ensemble.hpp"
#include "ensemble/service.hpp"
#include "fv3/driver.hpp"
#include "fv3/init/baroclinic.hpp"
#include "swe/driver.hpp"
#include "swe/init.hpp"

namespace cyclone::corpus {

namespace {

/// How a corpus backend name maps onto the runtime: executor selection,
/// scheduler (lockstep vs thread-per-rank), rank count, fault injection.
struct BackendSpec {
  exec::RunOptions run;
  bool concurrent = false;
  bool chaos = false;
  int ranks = 6;
};

BackendSpec parse_backend_spec(const std::string& backend) {
  BackendSpec spec;
  if (backend == "interp") {
    spec.run.backend = exec::ExecBackend::Interpreter;
  } else if (backend == "tape") {
    spec.run.backend = exec::ExecBackend::Tape;
  } else if (backend == "openmp") {
    spec.run.backend = exec::ExecBackend::OpenMP;
    spec.run.num_threads = 2;
  } else if (backend == "jit") {
    spec.run.backend = exec::ExecBackend::Jit;
  } else if (backend == "concurrent6") {
    spec.concurrent = true;
    spec.run.backend = exec::ExecBackend::Tape;
  } else if (backend == "concurrent24") {
    spec.concurrent = true;
    spec.ranks = 24;
    spec.run.backend = exec::ExecBackend::Tape;
  } else if (backend == "chaos") {
    spec.concurrent = true;
    spec.chaos = true;
    spec.run.backend = exec::ExecBackend::Tape;
  } else {
    throw Error("unknown corpus backend '" + backend +
                "' (interp|tape|openmp|jit|concurrent6|concurrent24|chaos)");
  }
  return spec;
}

/// Deterministic per-scenario fault plan: every chaos run replays
/// bit-exactly from the scenario name.
comm::FaultPlan chaos_plan(const std::string& scenario) {
  comm::FaultPlan plan;
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : scenario) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  plan.seed = h;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.reorder_rate = 0.05;
  plan.corrupt_rate = 0.05;
  return plan;
}

comm::RuntimeOptions chaos_runtime_options(const std::string& scenario) {
  comm::RuntimeOptions options;
  options.faults = chaos_plan(scenario);
  options.recovery.enabled = true;
  return options;
}

template <typename Model>
void advance(Model& model, const std::string& scenario, const BackendSpec& spec, int steps) {
  model.set_run_options(spec.run);
  if (spec.chaos) {
    model.set_runtime_options(chaos_runtime_options(scenario));
    const comm::RunReport report = model.run_resilient(steps);
    CY_REQUIRE_MSG(report.ok, "chaos run of '" << scenario << "' failed: " << report.failure);
    CY_REQUIRE_MSG(report.steps_completed == steps,
                   "chaos run of '" << scenario << "' completed " << report.steps_completed
                                    << "/" << steps << " steps");
    return;
  }
  if (spec.concurrent) model.set_exec_mode(Model::ExecMode::Concurrent);
  for (int s = 0; s < steps; ++s) model.step();
}

template <typename Model>
verify::ScenarioResult assemble(Model& model, const std::vector<std::string>& fields) {
  std::vector<verify::RankView> views;
  for (int r = 0; r < model.num_ranks(); ++r) {
    const grid::RankInfo info = model.partitioner().info(r);
    views.push_back(verify::RankView{&model.state(r).catalog(), info.tile, info.i0, info.j0,
                                     info.ni, info.nj});
  }
  verify::ScenarioResult result;
  for (const std::string& name : fields) {
    result.fields.push_back(
        verify::assemble_field(name, grid::kNumFaces, model.partitioner().n(), views));
  }
  return result;
}

verify::ScenarioResult run_swe_scenario(const std::string& scenario, const swe::SweConfig& cfg,
                                        const std::string& ic, int steps,
                                        const std::string& backend) {
  const BackendSpec spec = parse_backend_spec(backend);
  swe::SweModel model(cfg, spec.ranks);
  if (ic == "hill") {
    swe::init_gaussian_hill(model);
  } else if (ic == "vortex") {
    swe::init_vortex(model);
  } else if (ic == "jet") {
    swe::init_zonal_flow(model);
  } else {
    throw Error("unknown SWE initial condition '" + ic + "'");
  }
  advance(model, scenario, spec, steps);
  return assemble(model, swe::SweState::prognostic_names(cfg.ntracers));
}

verify::ScenarioResult run_dycore_scenario(const std::string& scenario,
                                           const fv3::FvConfig& cfg, const std::string& ic,
                                           int steps, const std::string& backend) {
  const BackendSpec spec = parse_backend_spec(backend);
  fv3::DistributedModel model(cfg, spec.ranks);
  if (ic == "baro") {
    fv3::init_baroclinic(model);
  } else if (ic == "solid") {
    for (int r = 0; r < model.num_ranks(); ++r) {
      fv3::init_solid_body(model.state(r), model.partitioner());
    }
    model.exchange_prognostics();
  } else {
    throw Error("unknown dycore initial condition '" + ic + "'");
  }
  advance(model, scenario, spec, steps);
  return assemble(model, fv3::ModelState::prognostic_names(cfg.ntracers));
}

/// Fixed perturbation seed of the committed ensemble scenarios: the goldens
/// pin the whole (seed, member) -> IC-perturbation -> integration chain.
constexpr uint64_t kEnsembleCorpusSeed = 0x5EEDC0DEull;

/// Run one committed ensemble scenario on a corpus backend: a batched
/// EnsembleRunner under the lockstep schedulers, the per-member concurrent
/// runtime at 6 or 24 ranks (the 24-rank run must reproduce the 6-rank
/// golden — the decomposition-invariance pin), or the fault-injected
/// resilient runtime. Member k's fields are recorded as "m<k>.<name>" so one
/// golden snapshot pins every member.
template <typename Model>
verify::ScenarioResult run_ensemble_scenario(
    const std::string& scenario, const typename ensemble::ModelTraits<Model>::Config& cfg,
    const std::string& ic, int members, int steps, const std::string& backend) {
  const BackendSpec spec = parse_backend_spec(backend);
  ensemble::EnsembleOptions opts;
  opts.members = ensemble::default_members(kEnsembleCorpusSeed, members);
  opts.num_ranks = spec.ranks;
  opts.run = spec.run;
  if (spec.concurrent) opts.scheduler = ensemble::EnsembleOptions::Scheduler::Concurrent;
  if (spec.chaos) opts.runtime = chaos_runtime_options(scenario);
  ensemble::EnsembleRunner<Model> runner(cfg, std::move(opts));
  runner.init(ic);
  if (spec.chaos) {
    const comm::RunReport report = runner.run_resilient(steps);
    CY_REQUIRE_MSG(report.ok,
                   "chaos ensemble run of '" << scenario << "' failed: " << report.failure);
  } else {
    runner.run(steps);
  }
  verify::ScenarioResult result;
  const std::vector<std::string> prognostics = ensemble::ModelTraits<Model>::prognostics(cfg);
  for (int m = 0; m < runner.members(); ++m) {
    Model& model = runner.member(m);
    verify::ScenarioResult one = assemble(model, prognostics);
    for (verify::GoldenField& field : one.fields) {
      field.name = str::numbered("m", m) + "." + field.name;
      result.fields.push_back(std::move(field));
    }
  }
  return result;
}

verify::Scenario ensemble_swe_scenario(const std::string& ic, int npx, int ntracers,
                                       int members, int steps) {
  const swe::SweConfig cfg = ensemble::standard_swe_config(npx, ntracers);
  verify::Scenario sc;
  sc.name = "ens_swe_c" + std::to_string(npx) + "_" + ic + "_m" + std::to_string(members);
  sc.core = "swe";
  sc.ic = ic;
  sc.grid = "c" + std::to_string(npx);
  sc.steps = steps;
  sc.tracers = ntracers;
  sc.run = [sc_name = sc.name, cfg, ic, members, steps](const std::string& backend) {
    return run_ensemble_scenario<swe::SweModel>(sc_name, cfg, ic, members, steps, backend);
  };
  return sc;
}

verify::Scenario ensemble_dycore_scenario(const std::string& ic, int npx, int npz, int ntracers,
                                          int members, int steps) {
  const fv3::FvConfig cfg = ensemble::standard_dycore_config(npx, npz, ntracers);
  verify::Scenario sc;
  sc.name = "ens_dycore_c" + std::to_string(npx) + "z" + std::to_string(npz) + "_" + ic + "_m" +
            std::to_string(members);
  sc.core = "dycore";
  sc.ic = ic;
  sc.grid = "c" + std::to_string(npx) + "z" + std::to_string(npz);
  sc.steps = steps;
  sc.tracers = ntracers;
  sc.run = [sc_name = sc.name, cfg, ic, members, steps](const std::string& backend) {
    return run_ensemble_scenario<fv3::DistributedModel>(sc_name, cfg, ic, members, steps,
                                                        backend);
  };
  return sc;
}

verify::Scenario swe_scenario(const std::string& ic, int npx, int ntracers, int steps) {
  swe::SweConfig cfg;
  cfg.npx = npx;
  cfg.ntracers = ntracers;
  verify::Scenario sc;
  sc.name = "swe_c" + std::to_string(npx) + "_" + ic + "_t" + std::to_string(ntracers);
  sc.core = "swe";
  sc.ic = ic;
  sc.grid = "c" + std::to_string(npx);
  sc.steps = steps;
  sc.tracers = ntracers;
  sc.run = [sc_name = sc.name, cfg, ic, steps](const std::string& backend) {
    return run_swe_scenario(sc_name, cfg, ic, steps, backend);
  };
  return sc;
}

verify::Scenario dycore_scenario(const std::string& ic, int npx, int npz, int ntracers,
                                 int steps) {
  fv3::FvConfig cfg;
  cfg.npx = npx;
  cfg.npz = npz;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = ntracers;
  cfg.dt = 300.0;
  verify::Scenario sc;
  sc.name = "dycore_c" + std::to_string(npx) + "z" + std::to_string(npz) + "_" + ic + "_t" +
            std::to_string(ntracers);
  sc.core = "dycore";
  sc.ic = ic;
  sc.grid = "c" + std::to_string(npx) + "z" + std::to_string(npz);
  sc.steps = steps;
  sc.tracers = ntracers;
  sc.run = [sc_name = sc.name, cfg, ic, steps](const std::string& backend) {
    return run_dycore_scenario(sc_name, cfg, ic, steps, backend);
  };
  return sc;
}

}  // namespace

std::vector<verify::Scenario> standard_scenarios() {
  std::vector<verify::Scenario> registry;

  // SWE core: two grid sizes, three ICs, tracer counts spanning the paper's
  // Table 3 axis (including the 35-tracer production count).
  registry.push_back(swe_scenario("hill", 12, 1, 2));
  registry.push_back(swe_scenario("vortex", 12, 2, 2));
  registry.push_back(swe_scenario("jet", 12, 8, 2));
  registry.push_back(swe_scenario("hill", 12, 35, 1));
  registry.push_back(swe_scenario("vortex", 24, 1, 2));
  registry.push_back(swe_scenario("jet", 24, 2, 2));

  // Dycore: two horizontal and two vertical sizes, two ICs.
  registry.push_back(dycore_scenario("baro", 12, 8, 1, 2));
  registry.push_back(dycore_scenario("solid", 12, 8, 2, 2));
  registry.push_back(dycore_scenario("baro", 12, 8, 8, 1));
  registry.push_back(dycore_scenario("baro", 12, 4, 2, 2));
  registry.push_back(dycore_scenario("baro", 24, 8, 2, 1));
  registry.push_back(dycore_scenario("solid", 24, 8, 1, 1));

  // Batched ensembles of both cores (the forecast service's standard
  // configurations): member-prefixed goldens pin the perturbation streams
  // and the batched runtime, and the concurrent24 backend doubles as the
  // ensemble decomposition-invariance pin.
  registry.push_back(ensemble_swe_scenario("hill", 12, 2, 4, 2));
  registry.push_back(ensemble_dycore_scenario("baro", 12, 4, 1, 4, 2));

  return registry;
}

std::string default_corpus_dir() {
  if (const char* env = std::getenv("CYCLONE_CORPUS_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
#ifdef CYCLONE_SOURCE_DIR
  return std::string(CYCLONE_SOURCE_DIR) + "/tests/corpus";
#else
  return "tests/corpus";
#endif
}

}  // namespace cyclone::corpus
