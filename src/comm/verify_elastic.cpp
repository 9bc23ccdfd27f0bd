#include "comm/verify_elastic.hpp"

#include <exception>
#include <utility>

#include "core/util/rng.hpp"

namespace cyclone::verify {

EquivalenceReport check_elastic_agrees(const ir::Program& program, int n, int nk,
                                       int halo_width, const ElasticVerifyOptions& options) {
  EquivalenceReport report;
  report.data_seed = options.data_seed;

  for (const auto& backend_name : options.backends) {
    exec::ExecBackend backend;
    if (!exec::parse_backend(backend_name, backend)) {
      DomainResult dr;
      dr.ok = false;
      dr.error = "unknown backend '" + backend_name + "'";
      report.domains.push_back(dr);
      report.equivalent = false;
      continue;
    }
    ir::Program prog = program;
    exec::RunOptions run = prog.run_options();
    run.backend = backend;
    run.num_threads = 1;
    prog.set_run_options(run);

    for (int s = 0; s < options.seeds; ++s) {
      const uint64_t seed = Rng::mix(options.data_seed, static_cast<uint64_t>(s));

      // Static-membership lockstep reference at the initial roster.
      const grid::Partitioner part0 = grid::Partitioner::for_ranks(n, options.initial_ranks);
      const auto doms = comm::launch_domains(part0, nk);
      const FieldCatalog ref = lockstep_owned(prog, part0, nk, halo_width, seed, options.steps);

      struct Scenario {
        const char* label;
        bool kill;
      };
      std::vector<Scenario> scenarios = {{"resize", false}};
      if (options.include_kill_rejoin) scenarios.push_back({"kill-rejoin", true});

      for (const Scenario& sc : scenarios) {
        DomainResult dr;
        dr.dom = doms[0];
        dr.fill_seed = seed;
        try {
          auto cats = seeded_catalogs(prog, doms, seed);
          comm::ElasticOptions eo;
          eo.runtime.run = prog.run_options();
          eo.runtime.channel.recv_timeout_seconds = options.recv_timeout_seconds;
          eo.keep_checkpoints = 2;
          if (!sc.kill) {
            const int grow_to =
                options.grow_ranks > 0 ? options.grow_ranks : options.initial_ranks;
            eo.plan.events = {{options.shrink_at, options.shrink_ranks},
                              {options.grow_at, grow_to}};
          } else {
            eo.runtime.faults.seed = Rng::mix(options.fault_seed, static_cast<uint64_t>(s));
            eo.runtime.faults.drop_rate = options.drop_rate;
            eo.runtime.faults.failure = comm::FaultPlan::Failure::Crash;
            eo.runtime.faults.fail_rank = static_cast<int>(Rng::derive(seed, 0x0DDull)
                                                               .next_below(static_cast<uint64_t>(
                                                                   options.initial_ranks)));
            eo.runtime.faults.fail_step = options.crash_step;
            eo.runtime.faults.fail_at_state = 1;
            eo.runtime.recovery.enabled = true;
            eo.on_death = comm::DeathPolicy::EvictAndRejoin;
            eo.evict_to_ranks = options.shrink_ranks;
            eo.rejoin_after_steps = options.rejoin_after_steps;
          }
          comm::ElasticRuntime ert(prog, nk, halo_width, part0, std::move(cats), eo);
          const comm::ElasticReport er = ert.run(options.steps);

          if (!er.ok) {
            dr.error = std::string(sc.label) + ": elastic run failed: " + er.failure;
          } else if (!sc.kill && er.resizes < 2) {
            dr.error = std::string(sc.label) + ": expected >= 2 resizes, saw " +
                       std::to_string(er.resizes);
          } else if (sc.kill && (er.deaths < 1 || er.rejoins < 1)) {
            dr.error = std::string(sc.label) + ": expected a death and a rejoin, saw " +
                       std::to_string(er.deaths) + " death(s), " + std::to_string(er.rejoins) +
                       " rejoin(s)";
          } else if (ert.halo().pool_outstanding() != 0) {
            dr.error = std::string(sc.label) + ": halo pool leak: " +
                       std::to_string(ert.halo().pool_outstanding()) + " buffers outstanding";
          }
          if (dr.error.empty()) {
            const DomainResult cmp = compare_owned(ref, ert.partitioner(), ert.rank_domains(),
                                                   backend_name + "/" + sc.label + "/");
            dr.fields = cmp.fields;
            dr.ok = cmp.ok;
          } else {
            dr.ok = false;
          }
        } catch (const std::exception& e) {
          dr.ok = false;
          dr.error = std::string(sc.label) + ": " + e.what();
        }
        report.domains.push_back(std::move(dr));
        report.equivalent = report.equivalent && report.domains.back().ok;
      }
    }
  }
  return report;
}

}  // namespace cyclone::verify
