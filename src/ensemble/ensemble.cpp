#include "ensemble/ensemble.hpp"

#include <algorithm>
#include <type_traits>

#include "core/util/rng.hpp"

namespace cyclone::ensemble {

std::vector<MemberSpec> default_members(uint64_t seed, int count) {
  CY_REQUIRE_MSG(count >= 1, "ensemble needs at least one member");
  std::vector<MemberSpec> members;
  members.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) members.push_back(MemberSpec{seed, i});
  return members;
}

namespace {

template <class Model>
std::unique_ptr<Model> make_member(const typename ModelTraits<Model>::Config& config,
                                   int num_ranks,
                                   const std::function<FieldPlacer(int)>& placers,
                                   const ir::Program* program) {
  if constexpr (std::is_same_v<Model, fv3::DistributedModel>) {
    return std::make_unique<Model>(config, num_ranks, fv3::DycoreSchedules::tuned(), placers,
                                   program);
  } else {
    return std::make_unique<Model>(config, num_ranks, swe::SweSchedules::tuned(), placers,
                                   program);
  }
}

}  // namespace

template <class Model>
EnsembleRunner<Model>::EnsembleRunner(const Config& config, EnsembleOptions options,
                                      const ir::Program* program)
    : config_(config),
      options_(std::move(options)),
      arena_(static_cast<int>(options_.members.size())) {
  CY_REQUIRE_MSG(!options_.members.empty(), "ensemble needs at least one member");
  const int n = members();
  models_.reserve(static_cast<size_t>(n));
  for (int m = 0; m < n; ++m) {
    auto placers = [this, m](int rank) { return arena_.placer(m, rank); };
    // Member 0 prepares the program once; the others copy it, and a copy
    // shares the prepared executors and JIT module.
    const ir::Program* shared = m == 0 ? program : &models_.front()->program();
    models_.push_back(make_member<Model>(config_, options_.num_ranks, placers, shared));
    Model& model = *models_.back();
    model.set_run_options(options_.run);
    if (m == 0) model.program().precompile();
    comm::RuntimeOptions runtime = options_.runtime;
    runtime.faults.seed = Rng::mix(runtime.faults.seed, static_cast<uint64_t>(m));
    model.set_runtime_options(runtime);
    if (options_.scheduler == EnsembleOptions::Scheduler::Concurrent) {
      model.set_exec_mode(Model::ExecMode::Concurrent);
    }
  }
}

template <class Model>
void EnsembleRunner<Model>::init(const std::string& ic,
                                 std::shared_ptr<const InitialState> initial) {
  CY_REQUIRE_MSG(!initial_, "init runs once, on a freshly built runner");
  size_t first_restored = 0;
  if (!initial) {
    apply_initial_condition(*models_.front(), ic);
    initial = std::make_shared<const InitialState>(InitialState::capture(*models_.front()));
    first_restored = 1;
  }
  for (size_t m = first_restored; m < models_.size(); ++m) initial->restore(*models_[m]);
  initial_ = std::move(initial);
  for (int m = 0; m < members(); ++m) {
    perturb_model(*models_[static_cast<size_t>(m)], options_.members[static_cast<size_t>(m)],
                  options_.amplitude);
  }
}

template <class Model>
void EnsembleRunner<Model>::step() {
  const int n = members();
  if (options_.scheduler == EnsembleOptions::Scheduler::Concurrent) {
    for (int m = 0; m < n; ++m) models_[static_cast<size_t>(m)]->step();
  } else {
    // The batched sweep: one pass of the lockstep scheduler with every
    // member folded inside every phase. Each member executes the same states
    // in the same order against its own program, and a compute state runs
    // every (member, rank) side on the team, each side writing only its own
    // member's fields. Every member's store sequence is therefore identical
    // to its solo run, and the batched result is bitwise equal by
    // construction.
    std::vector<const ir::Program*> programs;
    std::vector<const comm::HaloUpdater*> halos;
    std::vector<std::vector<comm::RankDomain>*> ranks;
    std::vector<comm::Comm*> comms;
    for (const auto& model : models_) {
      programs.push_back(&model->program());
      halos.push_back(&model->halo_updater());
      ranks.push_back(&model->rank_domains());
      comms.push_back(&model->comm());
    }
    comm::run_lockstep_step(programs, halos, ranks, comms);
  }
  member_steps_ += n;
}

template <class Model>
void EnsembleRunner<Model>::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

template <class Model>
comm::RunReport EnsembleRunner<Model>::run_resilient(int steps) {
  comm::RunReport aggregate;
  aggregate.steps_completed = steps;
  for (int m = 0; m < members(); ++m) {
    const comm::RunReport report = models_[static_cast<size_t>(m)]->run_resilient(steps);
    if (!report.ok && aggregate.ok) {
      aggregate.ok = false;
      aggregate.failure = "member " + std::to_string(m) + ": " + report.failure;
    }
    aggregate.steps_completed = std::min(aggregate.steps_completed, report.steps_completed);
    aggregate.restarts += report.restarts;
    aggregate.checkpoints += report.checkpoints;
    aggregate.rolled_back_steps += report.rolled_back_steps;
    aggregate.channel += report.channel;
    member_steps_ += report.steps_completed;
  }
  return aggregate;
}

template class EnsembleRunner<fv3::DistributedModel>;
template class EnsembleRunner<swe::SweModel>;

}  // namespace cyclone::ensemble
