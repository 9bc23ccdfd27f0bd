#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/verify/verify.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::verify {

// ---- The shared harness -----------------------------------------------------
//
// Every distributed 0-ULP check (concurrent runtime, fault tolerance,
// elastic membership, ensemble batching) starts its ranks from one state,
// runs the lockstep scheduler as the reference, and compares the subject
// against it with compare_ranks_bitwise.

/// Per-rank catalogs of `program` on `doms`: rank r is make_test_catalog
/// seeded with Rng::mix(seed, r). The default starting state of the checks.
std::vector<FieldCatalog> seeded_catalogs(const ir::Program& program,
                                          const std::vector<exec::LaunchDomain>& doms,
                                          uint64_t seed);

/// The one bitwise comparison of the distributed checks: every field of
/// every rank of `got` against the same rank of `ref`, halos included, by
/// bit pattern (compare_fields_bitwise). `names` restricts the fields
/// (empty = every field of `ref`). Fields are labelled
/// "<prefix>r<rank>/<field>" ("<prefix><field>" for a single rank). The
/// result lists every diverging field, or the first field as a witness when
/// all agree, and is ok iff every bit matches.
DomainResult compare_ranks_bitwise(const std::vector<comm::RankDomain>& ref,
                                   const std::vector<comm::RankDomain>& got,
                                   const std::string& prefix = {},
                                   const std::vector<std::string>& names = {});

/// The lockstep reference of runs whose roster changes (elastic): `steps`
/// lockstep passes of `program` from seeded_catalogs(..., seed) on `part`,
/// returned as the owned cells of every field in one roster-independent
/// catalog (assemble_owned's global order: field (gi, gj, tile * nk + k),
/// no halos).
FieldCatalog lockstep_owned(const ir::Program& program, const grid::Partitioner& part, int nk,
                            int halo_width, uint64_t seed, int steps);

/// compare_ranks_bitwise of the owned cells of `ranks` (any roster of
/// `part`) against `ref`, a lockstep_owned catalog.
DomainResult compare_owned(const FieldCatalog& ref, const grid::Partitioner& part,
                           const std::vector<comm::RankDomain>& ranks,
                           const std::string& prefix = {});

// ---- Test programs ------------------------------------------------------------

/// exchange(q) -> lap = 5-point laplacian of q -> out = 5-point of lap: one
/// scalar exchange and a radius-2 read.
ir::Program make_diffusion_program();

/// Vector exchange (u, v) + divergence: the rotated-component wire path
/// (sign flips across cube faces).
ir::Program make_vector_program();

/// The canonical elastic test program: halo exchange -> 5-point diffusion ->
/// commit (q advances every pass, so a resize at the wrong barrier or a
/// mis-scattered subdomain corrupts every later step). `trips` unrolls the
/// exchange/compute/commit sequence inside one pass.
ir::Program make_elastic_program(int trips = 2);

// ---- Concurrent runtime vs lockstep -------------------------------------------

/// Knobs of the distributed scheduler-equivalence checker.
struct DistributedVerifyOptions {
  /// OpenMP team budgets for each rank thread (RunOptions::threads_per_rank)
  /// to sweep. 1 exercises serial per-rank compute under concurrency, 2
  /// composes rank threads with engine teams.
  std::vector<int> thread_budgets = {1, 2};
  /// Randomized message-arrival-order repetitions per configuration: each
  /// repetition re-runs the concurrent runtime with a different channel
  /// jitter seed, perturbing when messages become visible (never what a recv
  /// returns).
  int repetitions = 20;
  /// Seed of the per-rank random field fills (and, mixed per repetition, of
  /// the arrival jitter).
  uint64_t data_seed = 0xD157ull;
  /// Program passes per run (halo state results feed later steps).
  int steps = 1;
  /// Channel recv timeout; generous by default so slow CI never misfires.
  double recv_timeout_seconds = 120.0;
};

/// Verify that the thread-per-rank concurrent runtime reproduces the
/// sequential lockstep scheduler bitwise — every field of every rank,
/// halos included, at 0 ULP — for every thread budget and randomized
/// message arrival order. Channel message/byte counters must
/// also match the SimComm totals.
///
/// `start` is the starting state of every rank of `part` (rank order, `nk`
/// levels); it is copied, never written. Empty = seeded_catalogs(program,
/// ..., data_seed). One DomainResult is recorded per (thread budget,
/// repetition); its fill_seed logs the jitter seed so any
/// failure replays bit-exactly. The partitioner requires a rank count that
/// is a positive multiple of 6 (one cubed-sphere face per tile), so 6 is the
/// smallest verifiable layout.
EquivalenceReport check_distributed_agrees(const ir::Program& program,
                                           const grid::Partitioner& part, int nk,
                                           int halo_width,
                                           const DistributedVerifyOptions& options = {},
                                           const std::vector<comm::RankDomain>& start = {});

// ---- Fault tolerance -----------------------------------------------------------

/// One fault family of the chaos sweep. Message modes exercise the reliable
/// channel; Crash and Hang exercise checkpoint/rollback-restart.
enum class FaultMode { Drop, Duplicate, Reorder, Corrupt, Delay, Crash, Hang };

[[nodiscard]] const char* fault_mode_name(FaultMode mode);
/// Parse "drop" / "duplicate" / "reorder" / "corrupt" / "delay" / "crash" /
/// "hang" (throws on anything else).
[[nodiscard]] FaultMode parse_fault_mode(const std::string& name);

/// Knobs of the chaos checker.
struct FaultToleranceOptions {
  /// Fault families to sweep. Hang is opt-in: it costs a heartbeat timeout
  /// of wall-clock per seed.
  std::vector<FaultMode> modes = {FaultMode::Drop, FaultMode::Duplicate, FaultMode::Reorder,
                                  FaultMode::Corrupt, FaultMode::Crash};
  int seeds_per_mode = 20;
  uint64_t fault_seed_base = 0xC4405ull;
  /// Per-message probability for the message-fault modes.
  double rate = 0.25;
  /// Program passes per run — at least 2 so a recovered step's results feed
  /// a later exchange.
  int steps = 2;
  uint64_t data_seed = 0xD157ull;
  double recv_timeout_seconds = 120.0;
  /// Crash/hang placement: negative = derive rank/step/state deterministically
  /// from each fault seed; >= 0 pins it (the --crash-rank CLI knob).
  int crash_rank = -1;
  int crash_step = -1;
  /// Heartbeat timeout for Hang runs (a hang costs this much wall-clock per
  /// seed; the default trades detection latency against TSan-slow machines).
  double hang_heartbeat_seconds = 0.5;
  /// Makes a fresh checkpoint store for each plan (null = the runtime's
  /// memory store).
  std::function<std::unique_ptr<comm::CheckpointStore>()> checkpoint_store;
};

/// Deterministic plan for one (mode, fault seed) cell of a chaos sweep.
/// Message modes set the mode's probability to `rate`; crash/hang placement
/// (rank, step, state position) is itself seed-derived — so N seeds probe N
/// different kill points — unless pinned via crash_rank/crash_step >= 0.
[[nodiscard]] comm::FaultPlan make_chaos_plan(FaultMode mode, uint64_t fault_seed, double rate,
                                              int steps, int crash_rank, int crash_step,
                                              int nranks, size_t order_len);

/// Chaos-verify the self-healing runtime: for every fault mode and seed,
/// build a deterministic FaultPlan, run the concurrent runtime with
/// fault injection + recovery enabled, and require (a) the run to complete
/// (recovering as needed) and (b) every field of every rank to match the
/// fault-free lockstep reference bitwise at 0 ULP. `start` as in
/// check_distributed_agrees. One DomainResult is recorded per (mode, seed);
/// its fill_seed logs the fault seed and its error names the injected plan,
/// so any failure replays bit-exactly.
EquivalenceReport check_fault_tolerant(const ir::Program& program,
                                       const grid::Partitioner& part, int nk, int halo_width,
                                       const FaultToleranceOptions& options = {},
                                       const std::vector<comm::RankDomain>& start = {});

}  // namespace cyclone::verify
