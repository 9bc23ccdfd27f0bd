#pragma once

#include <memory>
#include <vector>

#include "comm/runtime.hpp"
#include "ensemble/arena.hpp"
#include "ensemble/perturb.hpp"
#include "fv3/driver.hpp"
#include "swe/driver.hpp"

namespace cyclone::ensemble {

/// The default member roster for one experiment: member i carries
/// perturbation stream (seed, i); member 0 is the unperturbed control.
std::vector<MemberSpec> default_members(uint64_t seed, int count);

/// Configuration of one ensemble run.
struct EnsembleOptions {
  /// One entry per member, in batch-slot order. Specs are independent of
  /// their slot, so the forecast service can coalesce requests with
  /// different seeds into one batch.
  std::vector<MemberSpec> members{MemberSpec{}};
  double amplitude = 1e-3;
  int num_ranks = 6;
  /// Engine options for every member (backend, threads).
  exec::RunOptions run{};
  /// How step() schedules members:
  ///  - Batched: one lockstep pass interleaves all members — state loop
  ///    outer, member loop inner — so each scheduled stencil sweep advances
  ///    every member while its code and the members' adjacent arena blocks
  ///    are hot.
  ///  - Concurrent: each member advances through its own thread-per-rank
  ///    concurrent runtime (bitwise identical to Batched by the
  ///    concurrent == lockstep contract).
  enum class Scheduler { Batched, Concurrent };
  Scheduler scheduler = Scheduler::Batched;
  /// Runtime options for the Concurrent scheduler and run_resilient()
  /// (overlap, channel jitter, fault plan, recovery). faults.seed is
  /// re-derived per member (Rng::mix with the member slot) so members draw
  /// decorrelated fault streams from one configured seed.
  comm::RuntimeOptions runtime{};
};

/// Per-core glue the runner templates over; the two model cores are
/// deliberately isomorphic so this is all that differs.
template <class Model>
struct ModelTraits;

template <>
struct ModelTraits<fv3::DistributedModel> {
  using Config = fv3::FvConfig;
  static constexpr const char* core = "dycore";
  static std::vector<std::string> prognostics(const Config& config) {
    return fv3::ModelState::prognostic_names(config.ntracers);
  }
};

template <>
struct ModelTraits<swe::SweModel> {
  using Config = swe::SweConfig;
  static constexpr const char* core = "swe";
  static std::vector<std::string> prognostics(const Config& config) {
    return swe::SweState::prognostic_names(config.ntracers);
  }
};

/// N perturbed-IC instances of one model core sharing member-major arena
/// storage, advanced together so one scheduled stencil sweep serves all
/// members. Every member is bitwise (0 ULP) identical to a solo run of the
/// same (config, ic, spec) — the batching is pure iteration-space and
/// storage reorganization, never a numerics change.
///
/// Members share what does not depend on the member: member 0 prepares the
/// program (builds it, or copies `program` when given, then precompiles it
/// for the run options' backend) and every other member adopts a copy that
/// shares its executors and JIT module; init() applies the initial
/// condition once and copies it into every member before perturbing.
template <class Model>
class EnsembleRunner {
 public:
  using Config = typename ModelTraits<Model>::Config;

  /// `program`, when given, is a program already built for `config` (the
  /// forecast service's shape cache); no member then builds one.
  EnsembleRunner(const Config& config, EnsembleOptions options,
                 const ir::Program* program = nullptr);

  [[nodiscard]] int members() const { return static_cast<int>(options_.members.size()); }
  [[nodiscard]] const EnsembleOptions& options() const { return options_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Model& member(int m) { return *models_[static_cast<size_t>(m)]; }
  [[nodiscard]] const MemberArena& arena() const { return arena_; }

  /// Give every member the named initial condition, then apply each
  /// member's perturbation stream (member 0 of a default roster stays the
  /// control). Without `initial`, member 0 evaluates the condition and the
  /// others restore a snapshot of it; with `initial` (a snapshot of this
  /// shape and condition), every member restores it. Runs once, before
  /// the first step.
  void init(const std::string& ic, std::shared_ptr<const InitialState> initial = nullptr);

  /// The unperturbed snapshot the last init() restored from; null before.
  [[nodiscard]] const std::shared_ptr<const InitialState>& initial_state() const {
    return initial_;
  }

  /// Advance every member one timestep under options().scheduler.
  void step();
  void run(int steps);

  /// Advance every member `steps` timesteps through its self-healing
  /// concurrent runtime (fault injection + checkpoint/rollback-restart per
  /// member). Returns the aggregate: ok iff every member recovered,
  /// steps_completed is the minimum across members, counters are summed.
  comm::RunReport run_resilient(int steps);

  /// Total member-steps advanced (members x steps), the unit the ensemble
  /// benchmarks rate against solo processes.
  [[nodiscard]] long member_steps() const { return member_steps_; }

 private:
  Config config_;
  EnsembleOptions options_;
  MemberArena arena_;
  std::vector<std::unique_ptr<Model>> models_;
  std::shared_ptr<const InitialState> initial_;
  long member_steps_ = 0;
};

using DycoreEnsemble = EnsembleRunner<fv3::DistributedModel>;
using SweEnsemble = EnsembleRunner<swe::SweModel>;

}  // namespace cyclone::ensemble
