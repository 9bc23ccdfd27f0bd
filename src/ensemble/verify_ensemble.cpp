#include "ensemble/verify_ensemble.hpp"

#include <sstream>

#include "comm/verify_distributed.hpp"

namespace cyclone::ensemble {

template <class Model>
std::unique_ptr<Model> solo_member(const typename ModelTraits<Model>::Config& config,
                                   int num_ranks, const exec::RunOptions& run,
                                   const std::string& ic, const MemberSpec& spec,
                                   double amplitude) {
  auto model = std::make_unique<Model>(config, num_ranks);
  model->set_run_options(run);
  apply_initial_condition(*model, ic);
  perturb_model(*model, spec, amplitude);
  return model;
}

template std::unique_ptr<fv3::DistributedModel> solo_member<fv3::DistributedModel>(
    const fv3::FvConfig&, int, const exec::RunOptions&, const std::string&, const MemberSpec&,
    double);
template std::unique_ptr<swe::SweModel> solo_member<swe::SweModel>(const swe::SweConfig&, int,
                                                                   const exec::RunOptions&,
                                                                   const std::string&,
                                                                   const MemberSpec&, double);

template <class Model>
EnsembleVerifyReport verify_batched_vs_solo(const typename ModelTraits<Model>::Config& config,
                                            const EnsembleVerifyOptions& options) {
  EnsembleVerifyReport report;
  const std::vector<std::string> prognostics = ModelTraits<Model>::prognostics(config);
  for (exec::ExecBackend backend : options.backends) {
    exec::RunOptions run;
    run.backend = backend;
    run.num_threads = options.num_threads;
    for (int count : options.member_counts) {
      for (uint64_t seed : options.seeds) {
        EnsembleOptions opts;
        opts.members = default_members(seed, count);
        opts.amplitude = options.amplitude;
        opts.num_ranks = options.num_ranks;
        opts.run = run;
        opts.scheduler = options.scheduler;
        EnsembleRunner<Model> runner(config, std::move(opts));
        runner.init(options.ic);
        runner.run(options.steps);

        for (int m = 0; m < runner.members(); ++m) {
          // The solo replica runs through the plain lockstep scheduler with
          // owning (non-arena) storage — everything the batched path
          // reorganizes is different here; only the numbers must not be.
          auto solo = solo_member<Model>(config, options.num_ranks, run, options.ic,
                                         runner.options().members[static_cast<size_t>(m)],
                                         options.amplitude);
          for (int s = 0; s < options.steps; ++s) solo->step();
          const verify::DomainResult dr = verify::compare_ranks_bitwise(
              solo->rank_domains(), runner.member(m).rank_domains(), {}, prognostics);
          report.comparisons += static_cast<long>(solo->num_ranks() * prognostics.size());
          for (const verify::FieldDivergence& d : dr.fields) {
            if (d.ok) continue;
            ++report.mismatches;
            std::ostringstream msg;
            msg << ModelTraits<Model>::core << " backend=" << exec::backend_name(backend)
                << " members=" << count << " seed=" << seed << " member=" << m
                << " field=" << d.field << ": batched != solo at (" << d.at_i << "," << d.at_j
                << "," << d.at_k << ")";
            report.failures.push_back(msg.str());
          }
        }
      }
    }
  }
  return report;
}

template EnsembleVerifyReport verify_batched_vs_solo<fv3::DistributedModel>(
    const fv3::FvConfig&, const EnsembleVerifyOptions&);
template EnsembleVerifyReport verify_batched_vs_solo<swe::SweModel>(const swe::SweConfig&,
                                                                    const EnsembleVerifyOptions&);

}  // namespace cyclone::ensemble
