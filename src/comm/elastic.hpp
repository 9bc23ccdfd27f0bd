#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::comm {

/// One scripted membership change: at global step `at_step` (before the pass
/// runs), re-roster the job to `target_ranks`. Shrinks model voluntary
/// drains (ranks leaving), grows model ranks joining.
struct MembershipEvent {
  long at_step = 0;
  int target_ranks = 0;
};

/// Scripted membership timeline of an elastic run. Heartbeat-driven changes
/// (detected-dead ranks) come from the runtime's health machinery instead;
/// both funnel into the same resize protocol.
struct MembershipPlan {
  std::vector<MembershipEvent> events;

  /// Parse "step:ranks[,step:ranks...]", e.g. "2:6,5:24". Throws on
  /// malformed input; an empty script parses to an empty plan.
  static MembershipPlan parse(const std::string& script);

  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// Load-balancer policy: watch per-rank step-time EWMAs, trigger a
/// repartition when the slowest rank diverges past `trigger_ratio` times the
/// median. Warmup suppresses triggers until the EWMAs have settled.
struct LoadBalancerOptions {
  bool enabled = false;
  double trigger_ratio = 1.6;  ///< max EWMA / median EWMA that fires a rebalance
  int warmup_steps = 3;        ///< observations needed before the first trigger
};

/// Per-rank step-time EWMA monitor. Pure observer: it never touches data, so
/// whether (and when) it fires has no effect on numerics — rebalances it
/// requests go through the same bitwise-preserving resize protocol as
/// scripted membership changes.
class LoadBalancer {
 public:
  explicit LoadBalancer(LoadBalancerOptions options = {}) : options_(options) {}

  /// Roster changed (or a rebalance was honored): restart the warmup.
  void reset(int nranks);
  /// Fold one step's per-rank wall times into the EWMAs.
  void observe(const std::vector<double>& step_seconds);

  [[nodiscard]] bool should_rebalance() const;
  /// max EWMA / median EWMA (1.0 while unwarmed or degenerate).
  [[nodiscard]] double imbalance_ratio() const;
  [[nodiscard]] const std::vector<double>& ewma() const { return ewma_; }

 private:
  LoadBalancerOptions options_;
  std::vector<double> ewma_;
  int observed_ = 0;
};

/// What the elastic runtime does when a step fails (a rank died or hung).
enum class DeathPolicy {
  Fail,           ///< surface a failing report immediately
  Rollback,       ///< classic rollback-restart on the unchanged roster
  EvictAndRejoin  ///< shrink past the dead rank, then grow back when the
                  ///< replacement "arrives" (rejoin_after_steps later)
};

/// Policy of ElasticRuntime::run.
struct ElasticOptions {
  /// Per-epoch ConcurrentRuntime options. Fault plans are re-keyed (not
  /// re-armed) across re-rosters: message-fault rates stay live, rank-scoped
  /// fields are remapped, and an already-honored one-shot crash stays dead.
  RuntimeOptions runtime{};
  MembershipPlan plan{};
  LoadBalancerOptions balancer{};
  int checkpoint_interval = 1;  ///< elastic checkpoint every N successful steps
  int keep_checkpoints = 2;     ///< complete snapshots retained by the store
  DeathPolicy on_death = DeathPolicy::Rollback;
  int evict_to_ranks = 0;       ///< EvictAndRejoin shrink target (0 = 6, the minimum)
  int rejoin_after_steps = 2;   ///< steps on the degraded roster before growing back
  int max_restarts = 8;         ///< death-recovery budget before failing the run
};

/// Accounting of one membership change: where the time went between "last
/// rank reached the step barrier" and "first rank of the new roster starts
/// computing".
struct ResizeRecord {
  long at_step = 0;
  int from_ranks = 0;
  int to_ranks = 0;
  std::string trigger;          ///< "script" | "imbalance" | "death" | "rejoin"
  std::string error;            ///< non-empty = rejected (roster unchanged)
  double snapshot_seconds = 0;  ///< quiesce + assemble owned subdomains
  double rebuild_seconds = 0;   ///< new partitioner/catalogs/scatter + the new
                                ///< runtime's program copy
  double refresh_seconds = 0;   ///< halo-exchange replay on the new topology

  [[nodiscard]] double total_seconds() const {
    return snapshot_seconds + rebuild_seconds + refresh_seconds;
  }
};

/// Structured outcome of an elastic run.
struct ElasticReport {
  bool ok = true;
  long steps_completed = 0;
  int resizes = 0;           ///< honored membership changes (any trigger)
  int rebalances = 0;        ///< resizes triggered by the load balancer
  int rejoins = 0;           ///< grow-backs after an eviction
  int deaths = 0;            ///< failed steps (rank crash/hang)
  int rejected_resizes = 0;  ///< invalid rank counts refused mid-run
  int restarts = 0;
  int checkpoints = 0;
  long rolled_back_steps = 0;
  std::string failure;
  std::vector<ResizeRecord> resize_log;
  ReliabilityCounters channel;     ///< aggregated across all epochs
  std::vector<RankHealth> health;  ///< final roster's health table
};

/// Render an ElasticReport (resize log, channel counters, health) as JSON.
std::string elastic_report_to_json(const ElasticReport& report);

/// Assemble one field's *owned* cells from every rank into a global
/// (tile, k, gj, gi)-ordered array — the roster-independent canonical form
/// that migration, elastic checkpoints and elastic verification all share.
std::vector<double> assemble_owned(const grid::Partitioner& part,
                                   const std::vector<RankDomain>& ranks,
                                   const std::string& name);

/// Checkpoint store holding *global* snapshots: save() assembles every
/// field's owned cells into (tile, k, gj, gi) order, restore() scatters them
/// onto whatever roster is current — so one mechanism serves plain rollback,
/// subdomain migration at a resize, and evict-then-rejoin recovery. Field
/// halos are not captured (they are recomputed by the halo-replay phase of
/// the resize protocol; checkpoints are taken at drained step barriers where
/// halo contents are dead values).
///
/// Retention: the newest `keep_last` *complete* snapshots are kept; older
/// ones are evicted oldest-first. A save that throws mid-assembly (the model
/// of a crash during migration) leaves an incomplete snapshot behind;
/// restore() skips incomplete snapshots and gc() — also run at the start of
/// every save — drops them.
class ElasticCheckpointStore : public CheckpointStore {
 public:
  explicit ElasticCheckpointStore(int keep_last = 2)
      : keep_last_(keep_last < 1 ? 1 : keep_last) {}

  /// Declare the roster the next save()/restore() call's ranks belong to.
  void set_roster(const grid::Partitioner& part) { part_ = part; }

  void save(long step, const std::vector<RankDomain>& ranks) override;

  /// Scatter the newest complete snapshot onto `ranks` (any roster of the
  /// declared partitioner). Creates missing catalog fields from the
  /// snapshot's shape metadata; returns the snapshot's step.
  long restore(std::vector<RankDomain>& ranks) override;

  /// Drop incomplete snapshots (aborted-resize leftovers).
  void gc();

  [[nodiscard]] int retained() const;  ///< complete snapshots held
  [[nodiscard]] int partials() const;  ///< incomplete leftovers (pre-gc)
  [[nodiscard]] std::vector<long> retained_steps() const;
  [[nodiscard]] long saves() const { return saves_; }
  [[nodiscard]] long restores() const { return restores_; }

 private:
  struct GlobalField {
    std::string name;
    int levels = 1;
    HaloSpec halo{};
    Layout layout = Layout::KJI;
    int align = 8;
    std::vector<double> data;  ///< (tile, k, gj, gi) over owned cells
  };
  struct Snapshot {
    long step = -2;
    int n = 0;  ///< tile side the snapshot was taken at
    bool complete = false;
    std::vector<GlobalField> fields;
  };

  int keep_last_;
  std::optional<grid::Partitioner> part_;
  std::deque<Snapshot> snaps_;
  long saves_ = 0;
  long restores_ = 0;
};

/// Elastic membership layer over ConcurrentRuntime: ranks leave (voluntary
/// drain or detected-dead) and join mid-run. Each membership change runs the
/// resize protocol of DESIGN.md §14 — quiesce at the step barrier, snapshot
/// owned subdomains into the global checkpoint form, rebuild the partitioner
/// / HaloUpdater / per-rank catalogs for the new roster, scatter, replay the
/// program's halo exchanges once on the new topology, and rebuild the
/// concurrent runtime (one copy of the already precompiled program, so no
/// executor is rebuilt). Because the model programs are decomposition-invariant
/// (pinned by the corpus goldens), owned results after any resize sequence
/// are bitwise identical to the static-membership run.
class ElasticRuntime {
 public:
  /// `catalogs` is the initial roster's per-rank state (rank-major, one
  /// catalog per rank of `initial`); moved in, owned for the run's lifetime.
  ElasticRuntime(const ir::Program& program, int nk, int halo_width,
                 const grid::Partitioner& initial, std::vector<FieldCatalog> catalogs,
                 ElasticOptions options = {});

  ElasticReport run(int nsteps);

  [[nodiscard]] int num_ranks() const { return part_->num_ranks(); }
  [[nodiscard]] const grid::Partitioner& partitioner() const { return *part_; }
  [[nodiscard]] const HaloUpdater& halo() const { return *halo_; }
  [[nodiscard]] ConcurrentRuntime& runtime() { return *rt_; }
  [[nodiscard]] const ElasticCheckpointStore& store() const { return store_; }
  [[nodiscard]] const LoadBalancer& balancer() const { return balancer_; }
  [[nodiscard]] const std::vector<RankDomain>& rank_domains() const { return ranks_; }

  /// Apply one membership change now (between steps). Returns false — with a
  /// structured ResizeRecord carrying the reason — when `target` is not a
  /// valid roster; the run continues on the old roster.
  bool resize(int target, const char* trigger, ElasticReport& report);

 private:
  bool do_resize(int target, const char* trigger, ElasticReport& report, bool from_checkpoint);
  void rebuild_roster(int target);
  void build_runtime();
  void refresh_halos();

  ir::Program program_;
  int nk_;
  int halo_width_;
  ElasticOptions options_;
  long global_step_ = 0;
  bool faults_cleared_ = false;     ///< one-shot failure honored; stays dead
  bool imbalance_cleared_ = false;  ///< straggler shed by a rebalance

  std::unique_ptr<grid::Partitioner> part_;
  std::unique_ptr<HaloUpdater> halo_;
  std::vector<FieldCatalog> cats_;
  std::vector<exec::LaunchDomain> doms_;
  std::vector<RankDomain> ranks_;
  std::unique_ptr<ConcurrentRuntime> rt_;
  ElasticCheckpointStore store_;
  LoadBalancer balancer_;
};

}  // namespace cyclone::comm
