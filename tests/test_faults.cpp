#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "comm/simcomm.hpp"
#include "comm/verify_distributed.hpp"
#include "fv3/init/baroclinic.hpp"
#include "fv3/serialization.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::comm {
namespace {

using verify::make_diffusion_program;
using verify::make_vector_program;

/// Push `count` tagged messages through a fault-injected channel and require
/// recv to hand back the exact fault-free sequence.
void require_reliable_roundtrip(ConcurrentComm& comm, int count) {
  std::thread sender([&] {
    for (int i = 0; i < count; ++i) {
      comm.isend(0, 1, 1, {static_cast<double>(i), static_cast<double>(i) * 0.5});
    }
  });
  for (int i = 0; i < count; ++i) {
    const auto data = comm.recv(1, 0, 1);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data[0], static_cast<double>(i)) << "message " << i << " out of sequence";
    EXPECT_EQ(data[1], static_cast<double>(i) * 0.5);
  }
  sender.join();
  comm.purge_acknowledged();
  EXPECT_TRUE(comm.all_drained());
}

// ---- Reliable channel under wire faults ------------------------------------

TEST(FaultChannel, ReliableDeliveryUnderDrop) {
  FaultPlan plan;
  plan.seed = 0xD401;
  plan.drop_rate = 0.5;
  plan.retry_base_us = 50;  // keep the retransmit backoff cheap in tests
  ConcurrentComm comm(2);
  comm.set_fault_plan(plan);
  require_reliable_roundtrip(comm, 64);
  const ReliabilityCounters c = comm.reliability();
  EXPECT_EQ(c.reliable_sends, 64);
  EXPECT_GT(c.drops_injected, 0);
  EXPECT_GT(c.retransmits, 0);
  EXPECT_EQ(c.corrupt_detected, 0);
}

TEST(FaultChannel, CorruptionDetectedAndHealed) {
  FaultPlan plan;
  plan.seed = 0xC0;
  plan.corrupt_rate = 0.5;
  plan.retry_base_us = 50;
  ConcurrentComm comm(2);
  comm.set_fault_plan(plan);
  require_reliable_roundtrip(comm, 64);
  const ReliabilityCounters c = comm.reliability();
  EXPECT_GT(c.corrupts_injected, 0);
  // Every injected flip must be caught by the checksum — none may reach recv.
  EXPECT_GE(c.corrupt_detected, 1);
  EXPECT_GT(c.retransmits, 0);
}

TEST(FaultChannel, DuplicatesSuppressed) {
  FaultPlan plan;
  plan.seed = 0xD0B;
  plan.duplicate_rate = 0.8;
  ConcurrentComm comm(2);
  comm.set_fault_plan(plan);
  require_reliable_roundtrip(comm, 64);
  const ReliabilityCounters c = comm.reliability();
  EXPECT_GT(c.dups_injected, 0);
  EXPECT_GT(c.dups_dropped, 0);
}

TEST(FaultChannel, ReorderHealed) {
  FaultPlan plan;
  plan.seed = 0x12E;
  plan.reorder_rate = 0.7;
  ConcurrentComm comm(2);
  comm.set_fault_plan(plan);
  require_reliable_roundtrip(comm, 64);
  const ReliabilityCounters c = comm.reliability();
  EXPECT_GT(c.reorders_injected, 0);
  EXPECT_GT(c.reorders_healed, 0);
}

TEST(FaultChannel, SurvivesCombinedFaultSoup) {
  FaultPlan plan;
  plan.seed = 0x50F;
  plan.drop_rate = 0.2;
  plan.duplicate_rate = 0.2;
  plan.reorder_rate = 0.2;
  plan.corrupt_rate = 0.2;
  plan.delay_rate = 0.3;
  plan.delay_max_us = 100;
  plan.retry_base_us = 50;
  ConcurrentComm comm(2);
  comm.set_fault_plan(plan);
  require_reliable_roundtrip(comm, 128);
  EXPECT_GT(comm.reliability().faults_injected(), 0);
}

TEST(FaultChannel, ZeroCostWhenOff) {
  // An inactive plan must leave the raw fast path untouched: no envelopes,
  // no counters, nothing retained for retransmission.
  ConcurrentComm comm(2);
  comm.set_fault_plan(FaultPlan{});  // inactive
  for (int i = 0; i < 8; ++i) comm.isend(0, 1, 1, {static_cast<double>(i)});
  for (int i = 0; i < 8; ++i) EXPECT_EQ(comm.recv(1, 0, 1)[0], static_cast<double>(i));
  const ReliabilityCounters c = comm.reliability();
  EXPECT_EQ(c.reliable_sends, 0);
  EXPECT_EQ(c.faults_injected(), 0);
  EXPECT_EQ(c.retransmits, 0);
  EXPECT_TRUE(comm.all_drained());
}

TEST(FaultChannel, SimCommReliableDelivery) {
  // The lockstep mailbox gets the same envelope discipline (with an
  // idealized synchronous retransmit), so fault plans can also be replayed
  // under the sequential reference scheduler.
  FaultPlan plan;
  plan.seed = 0x51;
  plan.drop_rate = 0.4;
  plan.duplicate_rate = 0.3;
  plan.corrupt_rate = 0.3;
  SimComm sim(2);
  sim.set_fault_plan(plan);
  for (int i = 0; i < 64; ++i) sim.isend(0, 1, 2, {static_cast<double>(i)});
  for (int i = 0; i < 64; ++i) {
    const auto data = sim.recv(1, 0, 2);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0], static_cast<double>(i));
  }
  sim.purge_acknowledged();
  EXPECT_TRUE(sim.all_drained());
  const ReliabilityCounters c = sim.reliability();
  EXPECT_EQ(c.reliable_sends, 64);
  EXPECT_GT(c.faults_injected(), 0);
  EXPECT_GT(c.retransmits, 0);
}

// ---- Fault plan / injector determinism -------------------------------------

TEST(FaultPlanTest, DeterministicDecisions) {
  FaultPlan plan;
  plan.seed = 0xABCDEF;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.3;
  plan.corrupt_rate = 0.3;
  plan.delay_rate = 0.3;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  bool any_fault = false;
  for (long seq = 0; seq < 200; ++seq) {
    const auto fa = a.fate(0, 1, 7, seq, 0, 128);
    const auto fb = b.fate(0, 1, 7, seq, 0, 128);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    EXPECT_EQ(fa.corrupt, fb.corrupt);
    EXPECT_EQ(fa.corrupt_word, fb.corrupt_word);
    EXPECT_EQ(fa.corrupt_bit, fb.corrupt_bit);
    EXPECT_EQ(fa.delay_us, fb.delay_us);
    any_fault = any_fault || fa.drop || fa.duplicate || fa.corrupt || fa.delay_us > 0;
  }
  EXPECT_TRUE(any_fault);
  // Attempts are independent coins: the retransmit of a dropped message must
  // not be doomed to the same fate.
  bool differs = false;
  for (long seq = 0; seq < 200 && !differs; ++seq) {
    differs = a.fate(0, 1, 7, seq, 0, 128).drop != a.fate(0, 1, 7, seq, 1, 128).drop;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, ScopeFiltersRestrictInjection) {
  FaultPlan plan;
  plan.seed = 0xF11;
  plan.drop_rate = 1.0;
  plan.only_src = 3;
  const FaultInjector inj(plan);
  EXPECT_TRUE(inj.fate(3, 1, 7, 0, 0, 8).drop);
  EXPECT_FALSE(inj.fate(2, 1, 7, 0, 0, 8).drop);
  FaultPlan tag_plan = plan;
  tag_plan.only_src = -1;
  tag_plan.only_tag = 9;
  const FaultInjector tinj(tag_plan);
  EXPECT_TRUE(tinj.fate(0, 1, 9, 0, 0, 8).drop);
  EXPECT_FALSE(tinj.fate(0, 1, 7, 0, 0, 8).drop);
}

TEST(FaultPlanTest, ShouldFailIsOneShotUntilRearmed) {
  FaultPlan plan;
  plan.failure = FaultPlan::Failure::Crash;
  plan.fail_rank = 2;
  plan.fail_step = 1;
  plan.fail_at_state = 0;
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.should_fail(2, 0, 0));  // wrong step
  EXPECT_FALSE(inj.should_fail(1, 1, 0));  // wrong rank
  EXPECT_TRUE(inj.should_fail(2, 1, 0));
  EXPECT_FALSE(inj.should_fail(2, 1, 0));  // latched: a restarted rank is healthy
  inj.rearm();
  EXPECT_TRUE(inj.should_fail(2, 1, 0));
}

TEST(FaultPlanTest, DescribePlanNamesTheFaults) {
  FaultPlan plan;
  plan.seed = 0x2A;
  plan.drop_rate = 0.25;
  plan.failure = FaultPlan::Failure::Crash;
  plan.fail_rank = 1;
  plan.fail_step = 2;
  const std::string desc = describe_plan(plan);
  EXPECT_NE(desc.find("drop"), std::string::npos) << desc;
  EXPECT_NE(desc.find("crash"), std::string::npos) << desc;
  EXPECT_NE(describe_plan(FaultPlan{}).find("inactive"), std::string::npos);
}

TEST(FaultPlanTest, ChecksumCatchesEverySingleBitFlip) {
  std::vector<double> data = {1.0, -2.5, 3.75, 0.0};
  const uint64_t clean = payload_checksum(data);
  for (size_t word = 0; word < data.size(); ++word) {
    for (int bit : {0, 31, 52, 63}) {
      std::vector<double> mutated = data;
      flip_payload_bit(mutated, word, bit);
      EXPECT_NE(payload_checksum(mutated), clean) << "word " << word << " bit " << bit;
    }
  }
}

// ---- Checkpoint / rollback-restart recovery --------------------------------

/// Build a 6-rank diffusion runtime plus the pristine seed catalogs needed to
/// re-run it from identical initial conditions.
struct Fixture {
  ir::Program p = make_diffusion_program();
  grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  HaloUpdater halo{part, 3};
  std::vector<exec::LaunchDomain> doms = launch_domains(part, 3);
  std::vector<FieldCatalog> cats = verify::seeded_catalogs(p, doms, 0xFA17);

  std::vector<RankDomain> bind() { return bind_ranks(cats, doms); }
};

TEST(Recovery, CrashRollsBackAndMatchesFaultFreeRun) {
  // Reference: the same program, seeds and step count with no faults.
  Fixture ref;
  {
    ConcurrentRuntime rt(ref.p, ref.halo, ref.bind(), RuntimeOptions{});
    for (int s = 0; s < 3; ++s) rt.step();
  }

  Fixture subject;
  RuntimeOptions opt;
  opt.faults.seed = 0xCAFE;
  opt.faults.failure = FaultPlan::Failure::Crash;
  opt.faults.fail_rank = 2;
  opt.faults.fail_step = 1;
  opt.faults.fail_at_state = 1;
  opt.recovery.enabled = true;
  MemoryCheckpointStore store;
  opt.recovery.store = &store;
  ConcurrentRuntime rt(subject.p, subject.halo, subject.bind(), opt);
  const RunReport rr = rt.run(3);
  EXPECT_TRUE(rr.ok) << rr.failure;
  EXPECT_EQ(rr.steps_completed, 3);
  EXPECT_EQ(rr.restarts, 1);
  EXPECT_GE(rr.checkpoints, 1);
  EXPECT_EQ(store.restores(), 1);
  EXPECT_EQ(rt.halo().pool_outstanding(), 0);

  const verify::DomainResult dr = verify::compare_ranks_bitwise(ref.bind(), subject.bind());
  EXPECT_TRUE(dr.ok) << dr.fields.front().field << " diverges after crash recovery";
}

TEST(Recovery, HangDetectedByHeartbeatMonitor) {
  Fixture f;
  RuntimeOptions opt;
  opt.faults.seed = 0x4A26;
  opt.faults.failure = FaultPlan::Failure::Hang;
  opt.faults.fail_rank = 4;
  opt.faults.fail_step = 0;
  opt.faults.fail_at_state = 1;
  opt.recovery.enabled = true;
  opt.recovery.heartbeat_timeout_seconds = 0.3;
  ConcurrentRuntime rt(f.p, f.halo, f.bind(), opt);
  const RunReport rr = rt.run(2);
  EXPECT_TRUE(rr.ok) << rr.failure;
  EXPECT_EQ(rr.restarts, 1);
  EXPECT_EQ(rt.halo().pool_outstanding(), 0);
}

TEST(Recovery, ReportsInsteadOfThrowingWhenRecoveryImpossible) {
  // Total loss: every wire copy and every retransmission is dropped, so each
  // attempt exhausts max_retransmits and each restart hits the same wall.
  // run() must degrade to a structured failing report, not an exception.
  Fixture f;
  RuntimeOptions opt;
  opt.faults.seed = 0xDEAD;
  opt.faults.drop_rate = 1.0;
  opt.faults.max_retransmits = 3;
  opt.faults.retry_base_us = 50;
  opt.recovery.enabled = true;
  opt.recovery.max_restarts = 1;
  ConcurrentRuntime rt(f.p, f.halo, f.bind(), opt);
  const RunReport rr = rt.run(2);
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.failure.find("lost after"), std::string::npos) << rr.failure;
  EXPECT_EQ(rr.restarts, 1);
  EXPECT_LT(rr.steps_completed, 2);
  // The failed runtime must still be reusable: pools reset, channel clear.
  EXPECT_EQ(rt.halo().pool_outstanding(), 0);
  rt.set_fault_options(FaultPlan{}, RecoveryOptions{});
  const RunReport clean = rt.run(1);
  EXPECT_TRUE(clean.ok) << clean.failure;
}

TEST(Recovery, DisabledRecoveryDegradesToFailingReport) {
  Fixture f;
  RuntimeOptions opt;
  opt.faults.seed = 0x0FF;
  opt.faults.failure = FaultPlan::Failure::Crash;
  opt.faults.fail_rank = 0;
  opt.faults.fail_step = 0;
  opt.faults.fail_at_state = 1;
  ConcurrentRuntime rt(f.p, f.halo, f.bind(), opt);  // recovery.enabled = false
  const RunReport rr = rt.run(2);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.restarts, 0);
  EXPECT_NE(rr.failure.find("crashed"), std::string::npos) << rr.failure;
  EXPECT_EQ(rt.halo().pool_outstanding(), 0);
}

TEST(Recovery, CheckpointIntervalBoundsRollbackDepth) {
  // Crash during step 3 with checkpoints every 2 steps: the newest
  // checkpoint holds the end of step 1, so the completed step 2 is the one
  // step discarded by the rollback.
  Fixture f;
  RuntimeOptions opt;
  opt.faults.seed = 0x1D;
  opt.faults.failure = FaultPlan::Failure::Crash;
  opt.faults.fail_rank = 1;
  opt.faults.fail_step = 3;
  opt.faults.fail_at_state = 1;
  opt.recovery.enabled = true;
  opt.recovery.checkpoint_interval = 2;
  MemoryCheckpointStore store;
  opt.recovery.store = &store;
  ConcurrentRuntime rt(f.p, f.halo, f.bind(), opt);
  const RunReport rr = rt.run(5);
  EXPECT_TRUE(rr.ok) << rr.failure;
  EXPECT_EQ(rr.restarts, 1);
  EXPECT_EQ(rr.rolled_back_steps, 1);
  EXPECT_EQ(rr.steps_completed, 5);
}

// ---- Chaos sweeps: bitwise identity under injected faults ------------------

TEST(Chaos, DiffusionFaultToleranceSweep) {
  // The acceptance matrix: rank counts x {drop, duplicate, reorder, corrupt,
  // crash} x 20 seeds, every recovered run bitwise against fault-free
  // lockstep.
  const ir::Program p = make_diffusion_program();
  for (const int nranks : {6, 24}) {
    const grid::Partitioner part = grid::Partitioner::for_ranks(12, nranks);
    verify::FaultToleranceOptions opt;
    opt.seeds_per_mode = 20;
    const verify::EquivalenceReport report = verify::check_fault_tolerant(p, part, 3, 3, opt);
    EXPECT_TRUE(report.equivalent) << nranks << " ranks: " << report.first_failure();
    EXPECT_EQ(report.domains.size(), 100u);  // 5 modes x 20 seeds
  }
}

TEST(Chaos, VectorFaultToleranceSweep) {
  // The rotated-vector exchange (sign flips across cube faces) under the
  // same fault families: retransmitted vector halos must rotate identically.
  const ir::Program p = make_vector_program();
  for (const int nranks : {6, 24}) {
    const grid::Partitioner part = grid::Partitioner::for_ranks(12, nranks);
    verify::FaultToleranceOptions opt;
    opt.seeds_per_mode = 20;
    const verify::EquivalenceReport report = verify::check_fault_tolerant(p, part, 4, 3, opt);
    EXPECT_TRUE(report.equivalent) << nranks << " ranks: " << report.first_failure();
  }
}

TEST(Chaos, DelayAndHangModesAlsoHeal) {
  // Delay is absorbed by visibility-time waits; Hang exercises the heartbeat
  // monitor end to end. Both are opt-in (wall-clock cost), so a small sweep.
  const ir::Program p = make_diffusion_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  verify::FaultToleranceOptions opt;
  opt.modes = {verify::FaultMode::Delay, verify::FaultMode::Hang};
  opt.seeds_per_mode = 2;
  opt.hang_heartbeat_seconds = 0.3;
  const verify::EquivalenceReport report = verify::check_fault_tolerant(p, part, 3, 3, opt);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

TEST(Chaos, DycoreResilientAcrossFaultModes) {
  // Full FV3 program graph through run_resilient: acoustic loop, tracer
  // transport, remap and every halo node, with checkpoints flowing through
  // the fv3 Savepoint store. The deep 20-seed dycore sweep runs in the CI
  // chaos job via verify_pipeline --chaos.
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 4;
  cfg.ntracers = 1;

  const auto model = fv3::baroclinic_model(cfg, 6);
  verify::FaultToleranceOptions opt;
  opt.seeds_per_mode = 3;
  opt.fault_seed_base = 0xFC4405;
  opt.rate = 0.1;
  opt.checkpoint_store = [] { return std::make_unique<fv3::SavepointStore>(); };
  const verify::EquivalenceReport report = verify::check_fault_tolerant(
      model->program(), model->partitioner(), cfg.npz, 3, opt, model->rank_domains());
  EXPECT_TRUE(report.equivalent) << report.first_failure();
  EXPECT_EQ(report.domains.size(), 15u);  // 5 modes x 3 seeds
}

}  // namespace
}  // namespace cyclone::comm
