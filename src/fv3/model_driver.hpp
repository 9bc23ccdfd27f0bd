#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/halo.hpp"
#include "comm/runtime.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::fv3 {

/// The production pass list: the verify::apply_pass rungs every freshly
/// built model program runs once, in this order, so the interpreter and the
/// compiled backends all execute the rewritten IR (DESIGN.md, "Production
/// pass list"). A rung must be a deterministic rewrite that tunes nothing at
/// build time, hold on every placement (one program serves all ranks), and
/// win in perfbench pairs.
///   strength_reduce — d_sw's Smagorinsky pow(pow(a, 2) + pow(b, 2), 0.5)
///     becomes sqrt(a * a + b * b): dycore_c48 step_ms.p50 about 14% lower
///     in 10 of 10 perfbench pairs (EXPERIMENTS.md, Sec. VI-C1).
inline constexpr std::array<std::string_view, 1> kProductionPasses = {"strength_reduce"};

/// Run kProductionPasses on a freshly built program; `dom` is any rank's
/// launch domain. Every pass drops the compiled executors, so never call
/// this on a copy of a prepared program (it would lose the executors and
/// JIT module the copy shares).
void apply_production_passes(ir::Program& program, const exec::LaunchDomain& dom);

/// The scheduler plumbing of a model core (fv3::DistributedModel,
/// swe::SweModel): one program run on all ranks of a simulated cubed-sphere
/// decomposition. Two execution modes share that program and one
/// halo-exchange code path:
///
///  - Lockstep (default): ranks execute sequentially, phase by phase,
///    through the deterministic SimComm mailboxes — the reference
///    scheduler.
///  - Concurrent: every rank runs on its own thread against a real
///    mutex/condvar channel (comm::ConcurrentRuntime), optionally
///    overlapping interior compute with in-flight halo exchanges. Bitwise
///    identical to Lockstep by construction (verified in
///    verify::check_distributed_agrees).
///
/// The program is shared — horizontal regions resolve per rank through the
/// launch domain's global placement, exactly as in the distributed GT4Py
/// model. A core constructs its per-rank states and its program, then hands
/// both over with adopt().
class ModelDriver {
 public:
  enum class ExecMode { Lockstep, Concurrent };

  /// The concurrent runtime keeps references into the driver (halo
  /// updater, rank catalogs), so a driver never moves.
  ModelDriver(const ModelDriver&) = delete;
  ModelDriver& operator=(const ModelDriver&) = delete;

  [[nodiscard]] const grid::Partitioner& partitioner() const { return part_; }
  [[nodiscard]] int num_ranks() const { return part_.num_ranks(); }
  [[nodiscard]] const ir::Program& program() const { return program_; }
  [[nodiscard]] ir::Program& program() { return program_; }
  [[nodiscard]] comm::SimComm& comm() { return comm_; }
  [[nodiscard]] const comm::HaloUpdater& halo_updater() const { return halo_; }
  [[nodiscard]] comm::HaloUpdater& halo_updater() { return halo_; }
  /// Every rank's catalog and launch domain, in rank order.
  [[nodiscard]] std::vector<comm::RankDomain>& rank_domains() { return ranks_; }

  /// Engine options (backend, thread count) used by every compute state.
  /// The Interpreter backend ignores the thread options (it stays the
  /// serial oracle). The resolved team size also packs and unpacks the
  /// ranks of a lockstep halo exchange in parallel (bitwise the same at any
  /// size). In Concurrent mode these also seed the per-rank programs
  /// (threads_per_rank caps each rank's OpenMP team).
  void set_run_options(const exec::RunOptions& run);
  [[nodiscard]] const exec::RunOptions& run_options() const { return program_.run_options(); }

  /// Select the scheduler used by step(). Concurrent mode builds the
  /// thread-per-rank runtime lazily on the first step.
  void set_exec_mode(ExecMode mode) { exec_mode_ = mode; }
  [[nodiscard]] ExecMode exec_mode() const { return exec_mode_; }

  /// Concurrent-runtime behavior (overlap on/off, channel jitter/timeout).
  /// The `run` member is overwritten from run_options() at build time.
  void set_runtime_options(const comm::RuntimeOptions& options);

  /// The concurrent runtime (built on demand) — stats, channel counters.
  [[nodiscard]] comm::ConcurrentRuntime& concurrent_runtime();

  /// Advance one physics timestep on every rank.
  void step();

  /// Advance `steps` timesteps through the self-healing concurrent runtime:
  /// faults from the runtime options are injected, rank-local checkpoints
  /// are written through a SavepointStore (reusing the savepoint
  /// serialization layer) unless recovery.store is set, and crashed/hung
  /// steps roll back and restart. Switches the model to Concurrent mode.
  /// Returns the structured outcome instead of throwing on rank failure.
  comm::RunReport run_resilient(int steps);

  /// Exchange the prognostic fields' halos (used after initialization).
  void exchange_prognostics();

 protected:
  /// Decompose a cubed sphere of `npx` cells per tile edge over `num_ranks`.
  ModelDriver(int npx, int num_ranks);

  /// Adopt the core's per-rank states (rank order; anything with catalog()
  /// and domain()), its program, and the names exchange_prognostics()
  /// covers. The program is a copy of `prepared` when given (sharing its
  /// executors, and already passed), else `build()` run through
  /// kProductionPasses. The rank domains point into `states`, which the
  /// core owns for its whole lifetime.
  template <class State, class Build>
  void adopt(const std::vector<std::unique_ptr<State>>& states, const ir::Program* prepared,
             Build&& build, std::vector<std::string> prognostics) {
    ranks_.clear();
    for (const auto& st : states) ranks_.push_back(comm::RankDomain{&st->catalog(), st->domain()});
    if (prepared) {
      program_ = *prepared;
    } else {
      program_ = build();
      apply_production_passes(program_, ranks_.front().dom);
    }
    prognostics_ = std::move(prognostics);
  }

 private:
  grid::Partitioner part_;
  ir::Program program_;
  comm::SimComm comm_;
  comm::HaloUpdater halo_;
  std::vector<comm::RankDomain> ranks_;
  std::vector<std::string> prognostics_;
  ExecMode exec_mode_ = ExecMode::Lockstep;
  comm::RuntimeOptions runtime_options_{};
  std::unique_ptr<comm::ConcurrentRuntime> runtime_;
};

}  // namespace cyclone::fv3
