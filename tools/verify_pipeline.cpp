// verify_pipeline — translation-validate a transformation pipeline.
//
// Builds a program (a seeded fuzz program or the fv3 dycore), applies a
// comma-separated list of transformation passes, runs original and
// transformed through the reference interpreter on identical seeded field
// catalogs over a launch-domain sweep, and prints a JSON verdict.
//
//   verify_pipeline --program fuzz:42 --passes strength_reduce,fuse_sgf
//   verify_pipeline --program dycore --passes orchestrate
//   verify_pipeline --program fuzz:7 --passes fuse_otf --mutate 3   # must FAIL
//   verify_pipeline --program fuzz:9 --compare-serial --threads 7   # engine check
//   verify_pipeline --program dycore --concurrent --ranks 24        # runtime check
//
// With --compare-serial, the transformed program is additionally executed on
// the parallel engine (--threads sets the team size) and compared bitwise
// against the serial reference interpreter — the engine's determinism
// contract, checked from the command line.
//
// With --concurrent, the transformed program is additionally run through the
// thread-per-rank concurrent runtime on --ranks ranks (a multiple of 6) and
// compared bitwise against the sequential lockstep scheduler across thread
// budgets and randomized message-arrival orders. If a
// placement-dependent pass was applied, the concurrent check falls back to
// the original program (the transformed one is only valid on the pass
// placement); the JSON records which subject was checked.
//
// Exit code: 0 equivalent, 1 divergent, 2 usage/build error.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "comm/elastic.hpp"
#include "comm/verify_distributed.hpp"
#include "comm/verify_elastic.hpp"
#include "core/exec/engine.hpp"
#include "core/tune/search.hpp"
#include "core/tune/tunedb.hpp"
#include "core/verify/pipeline.hpp"
#include "core/verify/random_program.hpp"
#include "core/verify/verify.hpp"
#include "ensemble/service.hpp"
#include "ensemble/verify_ensemble.hpp"
#include "fv3/dyn_core.hpp"
#include "fv3/init/baroclinic.hpp"
#include "fv3/serialization.hpp"
#include "fv3/state.hpp"
#include "grid/partitioner.hpp"

namespace {

using namespace cyclone;

void usage() {
  std::fprintf(stderr,
               "usage: verify_pipeline [options]\n"
               "  --program SPEC     fuzz:<seed> (default fuzz:1) or dycore\n"
               "  --passes a,b,c     passes to apply in order (default: none)\n"
               "  --data-seed N      seed of the randomized catalogs (default 0xC0FFEE)\n"
               "  --trials N         independent fills per domain (default 1)\n"
               "  --max-ulps X       per-field ulp tolerance (default 64)\n"
               "  --mutate N         inject a seeded defect after the passes\n"
               "  --threads N        engine team size for --compare-serial (default: OpenMP)\n"
               "  --backend NAME     executor for --compare-serial: interp, tape, openmp\n"
               "                     (default), or jit\n"
               "  --compare-serial   also run the transformed program on the parallel\n"
               "                     engine and compare bitwise vs the serial interpreter\n"
               "  --concurrent       also run through the thread-per-rank concurrent\n"
               "                     runtime and compare bitwise vs the lockstep scheduler\n"
               "  --ranks N          rank count for --concurrent/--chaos, a multiple of 6\n"
               "                     (default 6)\n"
               "  --reps N           arrival-order repetitions for --concurrent (default 5)\n"
               "  --recv-timeout S   channel recv timeout in seconds for --concurrent and\n"
               "                     --chaos (default 120)\n"
               "  --chaos            chaos-verify the self-healing runtime: inject faults,\n"
               "                     recover, and require bitwise identity with the\n"
               "                     fault-free lockstep run. Programs: diffusion, vector,\n"
               "                     dycore, fuzz:<seed>\n"
               "  --fault-modes CSV  fault families to sweep (drop,duplicate,reorder,\n"
               "                     corrupt,delay,crash,hang; default drop,corrupt,crash)\n"
               "  --chaos-seeds N    fault seeds per mode (default 5)\n"
               "  --fault-seed N     base seed the per-run fault seeds derive from\n"
               "  --fault-rate X     per-message fault probability (default 0.25)\n"
               "  --crash-rank N     pin the crashing/hanging rank (default: seed-derived)\n"
               "  --crash-step N     pin the failing step (default: seed-derived)\n"
               "  --chaos-steps N    program passes per chaos run (default 2)\n"
               "  --ensemble         batched-vs-solo ensemble sweep: for both model cores,\n"
               "                     every batched member across backends x member counts x\n"
               "                     seeds must be bitwise identical to its solo run.\n"
               "                     --ranks, --threads, --seeds, --members, --steps apply\n"
               "  --seeds N          perturbation seeds for --ensemble (default 3)\n"
               "  --members CSV      member counts for --ensemble (default 1,4)\n"
               "  --steps N          timesteps per --ensemble run (default 2)\n"
               "  --elastic          prove the elastic membership layer invisible to the\n"
               "                     numerics: scripted shrink/grow round-trips and a\n"
               "                     kill-then-rejoin under chaos must match the static-\n"
               "                     membership lockstep run at 0 ULP, then an injected\n"
               "                     straggler must trigger a load-balancer re-roster.\n"
               "                     --seeds, --steps, --fault-seed, --fault-rate,\n"
               "                     --crash-step and --recv-timeout apply\n"
               "  --resize-script S  membership timeline \"step:ranks,step:ranks\" for\n"
               "                     --elastic: first event is the shrink, second the grow\n"
               "                     (default 2:6,5:24; --ranks sets the starting roster,\n"
               "                     default 24 in this mode)\n"
               "  --imbalance SPEC   synthetic straggler \"rank:extra_us\" for the elastic\n"
               "                     rebalance check (default 2:2000; off to skip)\n"
               "  --elastic-backends CSV\n"
               "                     backends the elastic sweep proves (default\n"
               "                     interp,openmp,jit)\n"
               "  --tune-mode NAME   off (default), guided, or exhaustive: autotune the\n"
               "                     transformed program before the equivalence check and\n"
               "                     report the search accounting; online: re-tune between\n"
               "                     steps inside the --concurrent runtime check\n"
               "  --tune-db PATH     persistent tuning database for --tune-mode (default:\n"
               "                     none; a second run against the same DB starts warm)\n"
               "  --list-passes      print the known pass names and exit\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_spec = "fuzz:1";
  std::string passes_csv;
  verify::VerifyOptions options;
  bool mutate = false;
  uint64_t mutate_seed = 0;
  bool compare_serial = false;
  bool concurrent = false;
  int ranks = 6;
  int concurrent_reps = 5;
  exec::RunOptions run;
  bool chaos = false;
  bool elastic = false;
  bool ranks_set = false;
  bool seeds_set = false;
  bool steps_set = false;
  std::string resize_script = "2:6,5:24";
  std::string imbalance_spec = "2:2000";
  std::string elastic_backends_csv = "interp,openmp,jit";
  bool ensemble_sweep = false;
  int ensemble_seeds = 3;
  std::string ensemble_members_csv = "1,4";
  int ensemble_steps = 2;
  std::string fault_modes_csv = "drop,corrupt,crash";
  int chaos_seeds = 5;
  uint64_t fault_seed = 0xC4405ull;
  double fault_rate = 0.25;
  int crash_rank = -1;
  int crash_step = -1;
  int chaos_steps = 2;
  double recv_timeout = 120.0;
  exec::TuneMode tune_mode = exec::TuneMode::Off;
  std::string tune_db;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--program") {
      program_spec = value();
    } else if (arg == "--passes") {
      passes_csv = value();
    } else if (arg == "--data-seed") {
      options.data_seed = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--trials") {
      options.trials = std::atoi(value());
    } else if (arg == "--max-ulps") {
      options.max_ulps = std::atof(value());
    } else if (arg == "--mutate") {
      mutate = true;
      mutate_seed = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--threads") {
      run.num_threads = std::atoi(value());
    } else if (arg == "--backend") {
      const std::string name = value();
      if (!exec::parse_backend(name, run.backend)) {
        std::fprintf(stderr, "unknown backend '%s'\n", name.c_str());
        return 2;
      }
    } else if (arg == "--compare-serial") {
      compare_serial = true;
    } else if (arg == "--concurrent") {
      concurrent = true;
    } else if (arg == "--ranks") {
      ranks = std::atoi(value());
      ranks_set = true;
    } else if (arg == "--reps") {
      concurrent_reps = std::atoi(value());
    } else if (arg == "--recv-timeout") {
      recv_timeout = std::atof(value());
    } else if (arg == "--ensemble") {
      ensemble_sweep = true;
    } else if (arg == "--seeds") {
      ensemble_seeds = std::atoi(value());
      seeds_set = true;
    } else if (arg == "--members") {
      ensemble_members_csv = value();
    } else if (arg == "--steps") {
      ensemble_steps = std::atoi(value());
      steps_set = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--elastic") {
      elastic = true;
    } else if (arg == "--resize-script") {
      resize_script = value();
    } else if (arg == "--imbalance") {
      imbalance_spec = value();
    } else if (arg == "--elastic-backends") {
      elastic_backends_csv = value();
    } else if (arg == "--fault-modes") {
      fault_modes_csv = value();
    } else if (arg == "--chaos-seeds") {
      chaos_seeds = std::atoi(value());
    } else if (arg == "--fault-seed") {
      fault_seed = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--fault-rate") {
      fault_rate = std::atof(value());
    } else if (arg == "--crash-rank") {
      crash_rank = std::atoi(value());
    } else if (arg == "--crash-step") {
      crash_step = std::atoi(value());
    } else if (arg == "--chaos-steps") {
      chaos_steps = std::atoi(value());
    } else if (arg == "--tune-mode") {
      const std::string name = value();
      if (!exec::parse_tune_mode(name, tune_mode)) {
        std::fprintf(stderr, "unknown tune mode '%s'\n", name.c_str());
        return 2;
      }
    } else if (arg == "--tune-db") {
      tune_db = value();
    } else if (arg == "--list-passes") {
      for (const auto& name : verify::known_passes()) std::printf("%s\n", name.c_str());
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  // Ensemble mode is self-contained: run the batched-vs-solo bitwise sweep
  // for both model cores and report per-core comparison counts. Exit 0 iff
  // every (backend, member count, seed, member, rank, field) comparison is
  // identical at 0 ULP.
  if (ensemble_sweep) {
    try {
      ensemble::EnsembleVerifyOptions evo;
      evo.steps = ensemble_steps;
      evo.num_ranks = ranks;
      if (run.num_threads > 0) evo.num_threads = run.num_threads;
      evo.member_counts.clear();
      for (const auto& count : split_csv(ensemble_members_csv)) {
        evo.member_counts.push_back(std::atoi(count.c_str()));
      }
      evo.seeds.clear();
      for (int s = 0; s < ensemble_seeds; ++s) evo.seeds.push_back(0x5EEDull + s);

      evo.ic = "hill";
      const ensemble::EnsembleVerifyReport swe_report =
          ensemble::verify_batched_vs_solo<swe::SweModel>(
              ensemble::standard_swe_config(12, 2), evo);
      evo.ic = "baro";
      const ensemble::EnsembleVerifyReport dycore_report =
          ensemble::verify_batched_vs_solo<fv3::DistributedModel>(
              ensemble::standard_dycore_config(12, 4, 1), evo);

      auto report_json = [](const ensemble::EnsembleVerifyReport& r) {
        std::ostringstream os;
        os << "{\"comparisons\": " << r.comparisons << ", \"mismatches\": " << r.mismatches
           << ", \"failures\": [";
        for (size_t i = 0; i < r.failures.size() && i < 5; ++i) {
          os << (i ? ", " : "") << "\"" << json_escape(r.failures[i]) << "\"";
        }
        os << "]}";
        return os.str();
      };
      std::ostringstream out;
      out << "{\n  \"mode\": \"ensemble\",\n  \"ranks\": " << ranks
          << ",\n  \"seeds\": " << ensemble_seeds << ",\n  \"members\": \""
          << ensemble_members_csv << "\",\n  \"steps\": " << ensemble_steps
          << ",\n  \"swe\": " << report_json(swe_report)
          << ",\n  \"dycore\": " << report_json(dycore_report) << ",\n  \"equivalent\": "
          << ((swe_report.ok() && dycore_report.ok()) ? "true" : "false") << "\n}\n";
      std::fputs(out.str().c_str(), stdout);
      return swe_report.ok() && dycore_report.ok() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ensemble sweep failed to run: %s\n", e.what());
      return 2;
    }
  }

  // Chaos mode is self-contained: build the program, sweep fault plans, and
  // require every recovered run to match the fault-free lockstep reference
  // bitwise. The pass-equivalence machinery below is not involved.
  if (chaos) {
    try {
      verify::FaultToleranceOptions fo;
      fo.modes.clear();
      for (const auto& name : split_csv(fault_modes_csv)) {
        fo.modes.push_back(verify::parse_fault_mode(name));
      }
      fo.seeds_per_mode = chaos_seeds;
      fo.fault_seed_base = fault_seed;
      fo.rate = fault_rate;
      fo.steps = chaos_steps;
      fo.data_seed = options.data_seed;
      fo.crash_rank = crash_rank;
      fo.crash_step = crash_step;
      fo.recv_timeout_seconds = recv_timeout;
      verify::EquivalenceReport report;
      if (program_spec == "dycore") {
        fv3::FvConfig cfg;
        cfg.npx = 12;
        cfg.npz = 4;
        cfg.ntracers = 1;
        const auto model = fv3::baroclinic_model(cfg, ranks);
        fo.checkpoint_store = [] { return std::make_unique<fv3::SavepointStore>(); };
        report = verify::check_fault_tolerant(model->program(), model->partitioner(), cfg.npz,
                                              /*halo_width=*/3, fo, model->rank_domains());
      } else {
        ir::Program prog("empty");
        if (program_spec == "diffusion") {
          prog = verify::make_diffusion_program();
        } else if (program_spec == "vector") {
          prog = verify::make_vector_program();
        } else if (program_spec.rfind("fuzz:", 0) == 0) {
          prog = verify::random_program(std::strtoull(program_spec.c_str() + 5, nullptr, 0));
        } else {
          std::fprintf(stderr, "unknown chaos program spec '%s'\n", program_spec.c_str());
          return 2;
        }
        const grid::Partitioner part = grid::Partitioner::for_ranks(12, ranks);
        report = verify::check_fault_tolerant(prog, part, /*nk=*/4, /*halo_width=*/3, fo);
      }
      std::ostringstream out;
      out << "{\n  \"program\": \"" << json_escape(program_spec) << "\",\n"
          << "  \"ranks\": " << ranks << ",\n"
          << "  \"fault_modes\": \"" << json_escape(fault_modes_csv) << "\",\n"
          << "  \"seeds_per_mode\": " << chaos_seeds << ",\n"
          << "  \"fault_rate\": " << fault_rate << ",\n"
          << "  \"chaos_report\": " << verify::report_to_json(report) << "\n}\n";
      std::fputs(out.str().c_str(), stdout);
      return report.equivalent ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos check failed to run: %s\n", e.what());
      return 2;
    }
  }

  // Elastic mode is self-contained: prove the membership layer invisible to
  // the numerics (scripted resizes + kill-then-rejoin under chaos, 0 ULP vs
  // the static lockstep run), then demonstrate the imbalance-triggered
  // rebalance path and surface its structured report (resize log, channel
  // reliability counters, per-rank heartbeat health).
  if (elastic) {
    try {
      const comm::MembershipPlan script = comm::MembershipPlan::parse(resize_script);
      if (script.events.size() < 2) {
        std::fprintf(stderr, "--resize-script needs a shrink and a grow event\n");
        return 2;
      }
      verify::ElasticVerifyOptions evo;
      evo.backends = split_csv(elastic_backends_csv);
      evo.seeds = seeds_set ? ensemble_seeds : 10;
      evo.steps = steps_set ? ensemble_steps : 8;
      evo.initial_ranks = ranks_set ? ranks : 24;
      evo.shrink_at = script.events[0].at_step;
      evo.shrink_ranks = script.events[0].target_ranks;
      evo.grow_at = script.events[1].at_step;
      evo.grow_ranks = script.events[1].target_ranks;
      evo.fault_seed = fault_seed;
      evo.drop_rate = fault_rate;
      if (crash_step >= 0) evo.crash_step = crash_step;
      evo.recv_timeout_seconds = recv_timeout;
      const verify::EquivalenceReport ereport =
          verify::check_elastic_agrees(verify::make_elastic_program(), /*n=*/12, /*nk=*/4,
                                       /*halo_width=*/3, evo);

      // Imbalance leg: inject a synthetic straggler, require the load
      // balancer to shed it through a re-roster, and require the perturbed
      // run to stay bitwise identical to the undisturbed lockstep reference.
      bool imbalance_ok = true;
      std::string imbalance_json;
      if (imbalance_spec != "off") {
        const comm::MembershipPlan spec = comm::MembershipPlan::parse(imbalance_spec);
        if (spec.events.size() != 1) {
          std::fprintf(stderr, "--imbalance wants a single rank:extra_us pair\n");
          return 2;
        }
        const ir::Program prog = verify::make_elastic_program(1);
        const int n = 12, nk = 4, isteps = steps_set ? ensemble_steps : 8;
        const grid::Partitioner part = grid::Partitioner::for_ranks(n, 6);
        comm::ElasticOptions eo;
        eo.runtime.channel.recv_timeout_seconds = recv_timeout;
        eo.runtime.imbalance.slow_rank = static_cast<int>(spec.events[0].at_step);
        eo.runtime.imbalance.extra_us_per_state = spec.events[0].target_ranks;
        eo.balancer.enabled = true;
        eo.balancer.trigger_ratio = 1.5;
        eo.balancer.warmup_steps = 2;
        comm::ElasticRuntime ert(
            prog, nk, 3, part,
            verify::seeded_catalogs(prog, comm::launch_domains(part, nk), options.data_seed), eo);
        const comm::ElasticReport ireport = ert.run(isteps);
        imbalance_json = comm::elastic_report_to_json(ireport);
        imbalance_ok = ireport.ok && ireport.rebalances >= 1;
        if (imbalance_ok) {
          const FieldCatalog ref =
              verify::lockstep_owned(prog, part, nk, 3, options.data_seed, isteps);
          const verify::DomainResult dr =
              verify::compare_owned(ref, ert.partitioner(), ert.rank_domains());
          if (!dr.ok) {
            imbalance_ok = false;
            std::fprintf(stderr, "imbalance run diverged on field '%s'\n",
                         dr.fields[0].field.c_str());
          }
        }
      }

      std::ostringstream out;
      out << "{\n  \"mode\": \"elastic\",\n"
          << "  \"resize_script\": \"" << json_escape(resize_script) << "\",\n"
          << "  \"initial_ranks\": " << (ranks_set ? ranks : 24) << ",\n"
          << "  \"backends\": \"" << json_escape(elastic_backends_csv) << "\",\n"
          << "  \"seeds\": " << (seeds_set ? ensemble_seeds : 10) << ",\n"
          << "  \"elastic_report\": " << verify::report_to_json(ereport) << ",\n";
      if (!imbalance_json.empty()) {
        out << "  \"imbalance\": \"" << json_escape(imbalance_spec) << "\",\n"
            << "  \"imbalance_ok\": " << (imbalance_ok ? "true" : "false") << ",\n"
            << "  \"imbalance_run\": " << imbalance_json << ",\n";
      }
      out << "  \"equivalent\": "
          << ((ereport.equivalent && imbalance_ok) ? "true" : "false") << "\n}\n";
      std::fputs(out.str().c_str(), stdout);
      return (ereport.equivalent && imbalance_ok) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "elastic check failed to run: %s\n", e.what());
      return 2;
    }
  }

  // Build the subject program and the placement the passes transform for.
  ir::Program original("empty");
  exec::LaunchDomain pass_dom = verify::default_domains().front();
  bool sweep = true;  // dycore runs only on its own placement
  try {
    if (program_spec.rfind("fuzz:", 0) == 0) {
      const uint64_t seed = std::strtoull(program_spec.c_str() + 5, nullptr, 0);
      original = verify::random_program(seed);
    } else if (program_spec == "dycore") {
      fv3::FvConfig cfg;
      cfg.npx = 12;
      cfg.npz = 8;
      cfg.ntracers = 2;
      grid::Partitioner part(cfg.npx, 1, 1);
      fv3::ModelState state(cfg, part, 0);
      original = fv3::build_dycore_program(state);
      pass_dom = state.domain();
      sweep = false;
    } else {
      std::fprintf(stderr, "unknown program spec '%s'\n", program_spec.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to build program: %s\n", e.what());
    return 2;
  }

  ir::Program transformed = original;
  std::vector<verify::PassResult> applied;
  bool placement_dependent_pass = false;
  for (const auto& name : split_csv(passes_csv)) {
    const verify::PassResult r = verify::apply_pass(transformed, name, pass_dom);
    if (!r.known) {
      std::fprintf(stderr, "unknown pass '%s' (see --list-passes)\n", name.c_str());
      return 2;
    }
    if (r.placement_dependent) {
      sweep = false;  // valid only on pass_dom
      placement_dependent_pass = true;
    }
    applied.push_back(r);
  }

  // Autotune the transformed program before the equivalence check: tuning is
  // semantics-preserving by contract, so check_equivalent below doubles as
  // the translation validator of whatever the search rewrote. Online mode is
  // exercised inside the --concurrent runtime check instead.
  std::string tuning_json;
  if (tune_mode == exec::TuneMode::Guided || tune_mode == exec::TuneMode::Exhaustive) {
    try {
      tune::TuningOptions topts;
      topts.dom = pass_dom;
      topts.run = run;
      topts.exhaustive = tune_mode == exec::TuneMode::Exhaustive;
      std::unique_ptr<tune::TuneDb> db;
      if (!tune_db.empty()) db = std::make_unique<tune::TuneDb>(tune_db);
      const tune::TuneReport tr = tune::tune_program(transformed, topts, db.get());
      std::ostringstream ts;
      ts << "{\"mode\": \"" << exec::tune_mode_name(tune_mode) << "\", \"warm\": "
         << (tr.warm ? "true" : "false") << ", \"candidates\": " << tr.search.candidates
         << ", \"evaluated\": " << tr.search.evaluated << ", \"timed\": " << tr.search.timed
         << ", \"pruned_saturated\": " << tr.search.pruned_saturated
         << ", \"pruned_low_gain\": " << tr.search.pruned_low_gain
         << ", \"early_exits\": " << tr.search.early_exits
         << ", \"transferred\": " << tr.search.transferred
         << ", \"db_hits\": " << tr.search.db_hits
         << ", \"patterns\": " << tr.patterns
         << ", \"applied\": " << tr.transfer.applied
         << ", \"schedules_changed\": " << tr.schedules_changed
         << ", \"modeled_speedup\": " << tr.speedup() << "}";
      tuning_json = ts.str();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tuning failed to run: %s\n", e.what());
      return 2;
    }
  }

  std::string defect;
  if (mutate) defect = verify::mutate_program(transformed, mutate_seed);

  if (!sweep && options.domains.empty()) options.domains = {pass_dom};
  const verify::EquivalenceReport report = verify::check_equivalent(
      verify::without_callbacks(original), verify::without_callbacks(transformed), options);

  std::ostringstream out;
  out << "{\n  \"program\": \"" << json_escape(program_spec) << "\",\n  \"passes\": [";
  for (size_t i = 0; i < applied.size(); ++i) {
    if (i) out << ", ";
    out << "{\"name\": \"" << json_escape(applied[i].name)
        << "\", \"changes\": " << applied[i].changes << "}";
  }
  out << "],\n";
  if (!tuning_json.empty()) out << "  \"tuning\": " << tuning_json << ",\n";
  if (mutate) out << "  \"injected_defect\": \"" << json_escape(defect) << "\",\n";

  // Optional serial-vs-parallel engine check of the transformed program,
  // executed on whichever backend --backend selected (default OpenMP).
  bool parallel_ok = true;
  if (compare_serial) {
    verify::VerifyOptions po = options;
    const verify::EquivalenceReport preport =
        verify::check_parallel_agrees(verify::without_callbacks(transformed), run, -1, -1, po);
    parallel_ok = preport.equivalent;
    out << "  \"backend\": \"" << exec::backend_name(run.backend) << "\",\n"
        << "  \"threads\": " << exec::resolved_num_threads(run) << ",\n"
        << "  \"parallel_report\": " << verify::report_to_json(preport) << ",\n";
  }

  // Optional concurrent-runtime-vs-lockstep check on a rank decomposition.
  bool concurrent_ok = true;
  if (concurrent) {
    verify::DistributedVerifyOptions dvo;
    dvo.repetitions = concurrent_reps;
    dvo.data_seed = options.data_seed;
    dvo.recv_timeout_seconds = recv_timeout;
    if (run.num_threads > 0) dvo.thread_budgets = {run.num_threads};
    // A placement-dependent pass produced a program that is only valid on
    // pass_dom; the rank subdomains differ, so check the original instead.
    const ir::Program& subject = placement_dependent_pass ? original : transformed;
    try {
      const grid::Partitioner part = grid::Partitioner::for_ranks(12, ranks);
      ir::Program csubject = verify::without_callbacks(subject);
      // --tune-mode online rides on the program's own run options: the
      // concurrent runtime re-tunes between steps while the lockstep
      // reference never tunes, so the bitwise comparison is the 0-ULP proof
      // that hot-swapped schedules do not change results.
      if (tune_mode == exec::TuneMode::Online) {
        exec::RunOptions cro = csubject.run_options();
        cro.tune_mode = exec::TuneMode::Online;
        cro.tune_db = tune_db;
        csubject.set_run_options(cro);
      }
      const verify::EquivalenceReport creport = verify::check_distributed_agrees(
          csubject, part, pass_dom.nk, /*halo_width=*/3, dvo);
      concurrent_ok = creport.equivalent;
      out << "  \"ranks\": " << ranks << ",\n"
          << "  \"concurrent_subject\": \""
          << (placement_dependent_pass ? "original" : "transformed") << "\",\n";
      if (tune_mode == exec::TuneMode::Online) {
        out << "  \"concurrent_tune_mode\": \"online\",\n";
      }
      out << "  \"concurrent_report\": " << verify::report_to_json(creport) << ",\n";
    } catch (const std::exception& e) {
      std::fprintf(stderr, "concurrent check failed to run: %s\n", e.what());
      return 2;
    }
  }

  out << "  \"report\": " << verify::report_to_json(report) << "\n}\n";
  std::fputs(out.str().c_str(), stdout);
  return report.equivalent && parallel_ok && concurrent_ok ? 0 : 1;
}
