#pragma once

#include <atomic>
#include <deque>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/channel.hpp"
#include "comm/faults.hpp"
#include "comm/halo.hpp"
#include "core/field/catalog.hpp"
#include "core/ir/program.hpp"
#include "core/tune/online.hpp"

namespace cyclone::comm {

/// One rank's slice of the model: the catalog holding its fields and the
/// launch domain carrying its global placement on the cubed sphere.
struct RankDomain {
  FieldCatalog* catalog = nullptr;
  exec::LaunchDomain dom;
};

/// The launch domain of rank `rank` of `part`: its owned block with `nk`
/// levels, placed on its tile of the global grid.
exec::LaunchDomain launch_domain(const grid::Partitioner& part, int rank, int nk);

/// launch_domain of every rank of `part`, in rank order.
std::vector<exec::LaunchDomain> launch_domains(const grid::Partitioner& part, int nk);

/// Pair rank r's catalog with its domain, for every rank of `doms`.
std::vector<RankDomain> bind_ranks(std::vector<FieldCatalog>& cats,
                                   const std::vector<exec::LaunchDomain>& doms);

/// Destination for rollback-restart checkpoints. Implementations capture the
/// complete field state of every rank; `save` is only ever called at a step
/// boundary with the channel drained, so a checkpoint is globally consistent
/// by construction — no Chandy-Lamport marker protocol is needed.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;
  /// Capture all ranks' state as of the *end* of step `step` (-1 = initial).
  virtual void save(long step, const std::vector<RankDomain>& ranks) = 0;
  /// Restore the newest checkpoint into the ranks; returns its step.
  virtual long restore(std::vector<RankDomain>& ranks) = 0;
};

/// Default store: deep copies of every rank's fields held in memory — the
/// stand-in for node-local burst-buffer checkpointing. fv3 provides a
/// Savepoint-backed implementation that reuses the serialization layer.
/// Retains the newest `keep_last` complete snapshots (older ones are evicted
/// oldest-first on save); restore always rewinds to the newest.
class MemoryCheckpointStore : public CheckpointStore {
 public:
  explicit MemoryCheckpointStore(int keep_last = 1) : keep_last_(keep_last < 1 ? 1 : keep_last) {}

  void save(long step, const std::vector<RankDomain>& ranks) override {
    Snapshot snap;
    snap.step = step;
    snap.ranks.reserve(ranks.size());
    for (const auto& rd : ranks) {
      std::vector<std::pair<std::string, FieldD>> fields;
      for (const auto& name : rd.catalog->names()) fields.emplace_back(name, rd.catalog->at(name));
      snap.ranks.push_back(std::move(fields));
    }
    snaps_.push_back(std::move(snap));
    while (static_cast<int>(snaps_.size()) > keep_last_) snaps_.pop_front();
    ++saves_;
  }

  long restore(std::vector<RankDomain>& ranks) override {
    CY_REQUIRE_MSG(!snaps_.empty(), "no checkpoint to restore");
    const Snapshot& snap = snaps_.back();
    CY_REQUIRE_MSG(snap.ranks.size() == ranks.size(), "checkpoint rank count mismatch");
    for (size_t r = 0; r < ranks.size(); ++r) {
      for (const auto& [name, field] : snap.ranks[r]) ranks[r].catalog->at(name).copy_from(field);
    }
    ++restores_;
    return snap.step;
  }

  [[nodiscard]] long saves() const { return saves_; }
  [[nodiscard]] long restores() const { return restores_; }
  [[nodiscard]] int retained() const { return static_cast<int>(snaps_.size()); }
  [[nodiscard]] std::vector<long> retained_steps() const {
    std::vector<long> steps;
    steps.reserve(snaps_.size());
    for (const auto& s : snaps_) steps.push_back(s.step);
    return steps;
  }

 private:
  struct Snapshot {
    long step = -1;
    std::vector<std::vector<std::pair<std::string, FieldD>>> ranks;
  };
  int keep_last_;
  std::deque<Snapshot> snaps_;
  long saves_ = 0;
  long restores_ = 0;
};

/// Crash-recovery policy of ConcurrentRuntime::run.
struct RecoveryOptions {
  bool enabled = false;
  int checkpoint_interval = 1;  ///< checkpoint every N successful steps
  int max_restarts = 8;         ///< beyond this, degrade to a failing RunReport
  /// Declare the job hung when no rank advances its heartbeat for this long
  /// (0 disables the monitor). Generous: a slow CI machine mid-state must
  /// not be mistaken for a hang.
  double heartbeat_timeout_seconds = 5.0;
  CheckpointStore* store = nullptr;  ///< null = runtime-internal memory store
};

/// Per-rank liveness and pacing observed by the runtime: the inputs of both
/// hang detection (heartbeats / last-seen step) and load-balancing decisions
/// (EWMA step time). Published in RunReport so rebalances and post-mortems
/// are explainable from the structured output alone.
struct RankHealth {
  int rank = 0;
  long last_seen_step = -1;        ///< last step this rank completed
  long heartbeats = 0;             ///< state-level liveness beats emitted
  double ewma_step_seconds = 0.0;  ///< exponentially-weighted step wall time
};

/// Structured outcome of a (possibly fault-injected) multi-step run: instead
/// of an escaping exception, callers get what completed, what it cost, and —
/// when recovery was impossible — why.
struct RunReport {
  bool ok = true;
  long steps_completed = 0;
  int restarts = 0;            ///< rollback-restart cycles performed
  int checkpoints = 0;         ///< checkpoints written (incl. the initial one)
  long rolled_back_steps = 0;  ///< completed steps discarded by rollbacks
  std::string failure;         ///< root cause when !ok
  ReliabilityCounters channel; ///< what the reliable layer absorbed
  std::vector<RankHealth> health;  ///< per-rank heartbeat/pacing snapshot
};

/// Render a RunReport as a single JSON object (reliability counters and the
/// per-rank health table included) for verify_pipeline and log scraping.
std::string run_report_to_json(const RunReport& report);

/// Body of a JSON string literal, as both report renderers write it: quote
/// and backslash escaped, control characters replaced by spaces.
std::string json_escape(const std::string& s);

/// Write the `,"channel":{...},"health":[...]` members both report renderers
/// end with.
void write_channel_and_health_json(std::ostream& os, const ReliabilityCounters& channel,
                                   const std::vector<RankHealth>& health);

/// Execute one program pass over all ranks with the phase-based scheduler:
/// a compute state runs on every rank before the next state starts;
/// halo-only states run as collective exchanges through `comm`. A compute
/// state runs its ranks on halo.num_threads() threads with every launch on
/// a team of one, or, on the Interpreter and Tape backends and for a state
/// with a Callback node, in rank order; the result is bitwise the same.
/// This is the lockstep reference the concurrent runtime is verified
/// bitwise against. It is the batched overload below with a single
/// instance.
void run_lockstep_step(const ir::Program& program, const HaloUpdater& halo,
                       std::vector<RankDomain>& ranks, Comm& comm);

/// The same lockstep pass for a batch of independent instances of one
/// program (the ensemble runtime's batched member sweep). Instance m is
/// (programs[m], halos[m], ranks[m], comms[m]); the state order comes from
/// programs[0], and the instance loop is folded inside every phase: each
/// compute state runs over every (instance, rank) side, and each halo node
/// is one exchange over every (instance, rank) pair, both on halos[0]'s
/// team. Every instance executes the same states in the same order as its
/// solo pass, and its comm sees its sends and receives in the same order,
/// so each result is bitwise equal to a solo run by construction. Instances
/// may share one program: its executors are immutable, and each thread
/// cuts its temporaries from its own exec::Workspace.
void run_lockstep_step(std::span<const ir::Program* const> programs,
                       std::span<const HaloUpdater* const> halos,
                       std::span<std::vector<RankDomain>* const> ranks,
                       std::span<Comm* const> comms);

/// Run a single halo-exchange node collectively over all ranks (exchange +
/// cube-corner fills), exactly as the lockstep scheduler does: every rank
/// packed, sends posted in rank order, receives taken, every rank unpacked.
/// Packing and unpacking run on halo.num_threads() threads when the node
/// moves enough values to pay for the fork; the result is bitwise the same
/// at any team size.
void run_halo_node(const HaloUpdater& halo, const ir::SNode& node,
                   std::vector<RankDomain>& ranks, Comm& comm);

/// Whether every node of a state is a halo exchange (such states run as
/// collective exchanges; anything else executes per rank). Every scheduler
/// classifies states with it: both lockstep overloads and the concurrent
/// runtime, and external tools that rebuild the lockstep loop from these
/// public calls (per-state tracing, for one).
bool is_halo_only(const ir::State& st);

/// Synthetic per-rank slowdown: a deterministic busy-wait added to one
/// rank's execution at every state of the flattened order. Pure wall-time —
/// no data path is touched, so results stay bitwise identical — which makes
/// it the test vehicle for EWMA divergence and load-balancer triggers.
struct ImbalancePlan {
  int slow_rank = -1;          ///< rank to slow down (-1 = inactive)
  long extra_us_per_state = 0; ///< busy-wait microseconds per state position
  long from_step = 0;          ///< first step() index the slowdown applies to
  [[nodiscard]] bool active() const { return slow_rank >= 0 && extra_us_per_state > 0; }
};

/// Options of the concurrent runtime.
struct RuntimeOptions {
  /// Engine options of the runtime's program. The OpenMP team of each rank
  /// thread is capped at run.threads_per_rank (0 = serial per-rank
  /// execution, one hardware thread per rank).
  exec::RunOptions run{};
  /// Channel behavior (recv timeout, arrival jitter, simulated network).
  ConcurrentComm::Options channel{};
  /// Deterministic fault injection (inactive by default). Message faults are
  /// absorbed by the channel's reliable layer; rank failures are recovered
  /// by run() when `recovery.enabled`.
  FaultPlan faults{};
  RecoveryOptions recovery{};
  /// Synthetic straggler injection (inactive by default); wall-time only,
  /// bitwise invariant.
  ImbalancePlan imbalance{};
};

/// Thread-per-rank distributed runtime: every rank executes the program on
/// its own std::thread and exchanges halos through a ConcurrentComm. A
/// halo-only state posts the rank's sends, then blocks in recv and fills
/// cube corners; a compute state runs whole on the rank's subdomain, as in
/// lockstep.
///
/// One program serves every rank thread: a copy of the caller's program
/// with the per-rank run options, sharing the caller's executors and JIT
/// module. Rank threads only read its executor caches. That holds because
/// precompile() warms them on the coordinator thread before any rank thread
/// starts, and again after every online hot-swap, between steps.
/// Program::require_serial_build refuses a cache miss only inside an OpenMP
/// region, not on a std::thread, so this ordering is what keeps the caches
/// race-free.
///
/// Determinism: field ownership is static (each rank thread writes only its
/// own catalog; remote data crosses only as packed channel messages), the
/// channel is FIFO per (src, dst, tag), and every state runs whole on every
/// rank, so the runtime is bitwise identical to run_lockstep_step for every
/// rank count, thread budget, and message arrival order.
class ConcurrentRuntime {
 public:
  ConcurrentRuntime(const ir::Program& program, const HaloUpdater& halo,
                    std::vector<RankDomain> ranks, RuntimeOptions options = {});

  /// Advance one program pass on every rank concurrently. Throws the first
  /// (temporally-first) failure after aborting the channel and joining all
  /// threads; asserts the channel drained on success.
  void step();

  /// Advance `nsteps` passes with fault recovery: checkpoints every
  /// `recovery.checkpoint_interval` successful steps, and on a failed step
  /// rolls all ranks back to the last checkpoint, resets the channel and
  /// halo pools, and retries — up to `recovery.max_restarts` times. Never
  /// throws for rank failures: an unrecoverable run comes back as a
  /// structured failing RunReport. With recovery disabled, the first failure
  /// also degrades to a failing report.
  RunReport run(int nsteps);

  /// Swap the fault plan and recovery policy without rebuilding the runtime
  /// (chaos sweeps reuse one runtime across hundreds of plans). Resets
  /// channel transport state and pool accounting.
  void set_fault_options(const FaultPlan& faults, const RecoveryOptions& recovery);

  [[nodiscard]] ConcurrentComm& comm() { return comm_; }

  /// Per-rank heartbeat/pacing snapshot (valid between steps). The EWMA step
  /// times are what the elastic LoadBalancer consumes.
  [[nodiscard]] const std::vector<RankHealth>& rank_health() const { return health_; }
  /// Wall seconds each rank spent in the most recent step().
  [[nodiscard]] const std::vector<double>& last_step_seconds() const { return step_seconds_; }

  /// The step() index the next pass will run as (== completed passes since
  /// the last reset). FaultPlan::fail_step and ImbalancePlan::from_step match
  /// against it.
  [[nodiscard]] long step_index() const { return step_index_; }
  /// Align the pass counter with an external (global) step clock. The elastic
  /// layer rebuilds the runtime mid-run on every re-roster, and fault plans /
  /// imbalance plans are keyed in global steps — a fresh epoch must not
  /// restart the clock at 0.
  void set_step_index(long step) { step_index_ = step; }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  [[nodiscard]] const HaloUpdater& halo() const { return halo_; }

  /// The online re-tuner, live once the first step ran with
  /// run.tune_mode == TuneMode::Online; null otherwise. Read its stats only
  /// between steps.
  [[nodiscard]] const tune::OnlineTuner* online_tuner() const { return online_.get(); }

 private:
  void run_rank(int rank);
  void online_retune();

  const HaloUpdater& halo_;
  std::vector<RankDomain> ranks_;
  RuntimeOptions options_;
  /// The program every rank thread runs: the caller's program with the
  /// per-rank run options, precompiled before any rank thread starts.
  ir::Program program_;
  std::vector<int> order_;       ///< flattened state execution order
  std::vector<char> halo_only_;  ///< per state: all nodes are HaloExchange
  ConcurrentComm comm_;
  /// Injected rank-failure oracle (crash/hang one-shot latch). Null without
  /// a planned failure; the channel holds its own injector for wire faults.
  std::unique_ptr<FaultInjector> fail_injector_;
  /// Program pass index, advanced by step() on success and rewound by run()
  /// on rollback; read by the failure hook to match FaultPlan::fail_step.
  long step_index_ = 0;
  /// Per-rank liveness beats (relaxed increments from rank threads, polled
  /// by the health monitor). unique_ptr array: atomics are not movable.
  std::unique_ptr<std::atomic<long>[]> heartbeats_;
  /// Wall seconds per rank for the latest step. Each rank thread writes only
  /// its own slot; the coordinator reads after the joins (happens-before).
  std::vector<double> step_seconds_;
  /// Per-rank health, folded from step_seconds_ by the coordinator after
  /// every successful step.
  std::vector<RankHealth> health_;
  /// Between-steps re-tuner (run.tune_mode == Online). Created lazily on
  /// the first step; hot-swaps improved states into program_ at step
  /// boundaries only — rank threads are joined, so no executor observes a
  /// swap mid-flight.
  std::unique_ptr<tune::OnlineTuner> online_;
};

}  // namespace cyclone::comm
