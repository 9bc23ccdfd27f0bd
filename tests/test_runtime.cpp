#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "comm/verify_distributed.hpp"
#include "core/dsl/builder.hpp"
#include "fv3/init/baroclinic.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::comm {
namespace {

using dsl::E;
using dsl::StencilBuilder;

// ---- Test programs ---------------------------------------------------------

using verify::make_diffusion_program;
using verify::make_vector_program;

/// Two program passes through a loop: the second trip consumes halos the
/// first trip's compute dirtied, so the exchange must re-run correctly.
ir::Program make_looped_program() {
  ir::Program p("looped");
  const int hx = p.add_state(ir::State{"hx", {ir::SNode::make_halo_exchange("hx.q", {"q"}, 3)}});
  StencilBuilder b("smooth");
  auto q = b.field("q");
  b.parallel().full().assign(q, (q(1, 0) + q(-1, 0) + q(0, 1) + q(0, -1) + E(q) * 4.0) * 0.125);
  const int sm = p.add_state(ir::State{"smooth", {ir::SNode::make_stencil("smooth", b.build())}});
  p.control_flow().children.push_back(
      ir::CFNode::loop("it", 3, {ir::CFNode::state_ref(hx), ir::CFNode::state_ref(sm)}));
  return p;
}

// ---- Overlap analysis ------------------------------------------------------

TEST(Runtime, OverlapAnalysisComposesReadRadius) {
  const ir::Program p = make_diffusion_program();
  const OverlapPlan plan = analyze_overlap(p, 1);
  EXPECT_TRUE(plan.splittable) << plan.reason;
  // lap reads q at offset 1 (depth 1); out reads lap at offset 1 on top.
  EXPECT_EQ(plan.radius, 2);
  // The halo-only state itself is not a compute state.
  EXPECT_FALSE(analyze_overlap(p, 0).splittable);
}

TEST(Runtime, OverlapAnalysisRejectsAntiDependence) {
  // a = q(+1); q = a: the rim pass would re-read a cell of q that the full
  // launch already overwrote.
  ir::Program p("anti");
  StencilBuilder b("anti");
  auto q = b.field("q");
  auto a = b.field("a");
  b.parallel().full().assign(a, q(1, 0) * 2.0);
  b.parallel().full().assign(q, E(a) + 1.0);
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("anti", b.build())}});
  const OverlapPlan plan = analyze_overlap(p, 0);
  EXPECT_FALSE(plan.splittable);
  EXPECT_NE(plan.reason.find("'q'"), std::string::npos) << plan.reason;
}

TEST(Runtime, OverlapAnalysisRejectsSelfOffsetRead) {
  // q = q(+1): reads its own LHS at a horizontal offset.
  ir::Program p("shift");
  StencilBuilder b("shift");
  auto q = b.field("q");
  b.parallel().full().assign(q, q(1, 0));
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("shift", b.build())}});
  EXPECT_FALSE(analyze_overlap(p, 0).splittable);
}

TEST(Runtime, OverlapAnalysisRejectsMismatchedWriterExtents) {
  // Two nodes write the same field with different apply extensions: a rim
  // launch would run the wider writer over cells whose final value the full
  // launch took from the narrower one.
  ir::Program p("outdep");
  auto make_set = [](const std::string& label, double value) {
    StencilBuilder b(label);
    auto q = b.field("q");
    auto src = b.field("src");
    b.parallel().full().assign(q, E(src) * 0.0 + value);
    return b.build();
  };
  ir::SNode wide = ir::SNode::make_stencil("wide", make_set("wide", 1.0));
  wide.ext = exec::DomainExt{1, 1, 1, 1};
  ir::SNode narrow = ir::SNode::make_stencil("narrow", make_set("narrow", 2.0));
  p.append_state(ir::State{"s", {std::move(wide), std::move(narrow)}});
  const OverlapPlan plan = analyze_overlap(p, 0);
  EXPECT_FALSE(plan.splittable);
  EXPECT_NE(plan.reason.find("extension"), std::string::npos) << plan.reason;
}

TEST(Runtime, OverlapAnalysisAllowsVerticalRecurrence) {
  // Column sweep reading its own k-1 value: every sub-launch re-runs the
  // whole column, so the recurrence recomputes identically.
  ir::Program p("cumsum");
  StencilBuilder b("cumsum");
  auto a = b.field("a");
  b.forward().interval(dsl::inner_levels(1, 0)).assign(a, a.at_k(-1) + E(a));
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("cumsum", b.build())}});
  const OverlapPlan plan = analyze_overlap(p, 0);
  EXPECT_TRUE(plan.splittable) << plan.reason;
  EXPECT_EQ(plan.radius, 0);
}

// ---- Concurrent runtime ----------------------------------------------------

TEST(Distributed, DiffusionAgreesAcrossRankCountsAndBudgets) {
  // The acceptance sweep: rank counts x thread budgets x >= 20 randomized
  // arrival orders, overlap on and off, all bitwise against lockstep.
  const ir::Program p = make_diffusion_program();
  for (const int nranks : {6, 24}) {
    const grid::Partitioner part = grid::Partitioner::for_ranks(12, nranks);
    verify::DistributedVerifyOptions opt;
    opt.repetitions = 20;
    const verify::EquivalenceReport report =
        verify::check_distributed_agrees(p, part, 3, 3, opt);
    EXPECT_TRUE(report.equivalent) << nranks << " ranks: " << report.first_failure();
    // budgets {1,2} x overlap {on,off} x 20 reps.
    EXPECT_EQ(report.domains.size(), 80u);
  }
}

TEST(Distributed, VectorExchangeAgrees) {
  const ir::Program p = make_vector_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  verify::DistributedVerifyOptions opt;
  opt.repetitions = 5;
  const verify::EquivalenceReport report = verify::check_distributed_agrees(p, part, 4, 3, opt);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

TEST(Distributed, LoopedExchangeAgreesOverSteps) {
  const ir::Program p = make_looped_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  verify::DistributedVerifyOptions opt;
  opt.repetitions = 5;
  opt.steps = 2;
  const verify::EquivalenceReport report = verify::check_distributed_agrees(p, part, 3, 3, opt);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

TEST(Distributed, OverlapActuallySplitsStates) {
  // With overlap on, the diffusion step must be executed as interior + rim
  // (observable through the runtime stats), and still match lockstep (the
  // agreement is asserted by the sweep above; here we pin the mechanism).
  const ir::Program p = make_diffusion_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  const HaloUpdater halo(part, 3);
  const auto doms = launch_domains(part, 3);
  std::vector<FieldCatalog> cats = verify::seeded_catalogs(p, doms, 0xABC);

  ConcurrentRuntime rt(p, halo, bind_ranks(cats, doms), RuntimeOptions{});
  EXPECT_TRUE(rt.plan(1).splittable);
  rt.step();
  rt.step();
  EXPECT_EQ(rt.stats().steps, 2);
  EXPECT_EQ(rt.stats().halo_states, 2);
  EXPECT_EQ(rt.stats().overlapped_states, 2);
}

TEST(Distributed, DycoreConcurrentMatchesLockstepBitwise) {
  // Full FV3 program graph: acoustic loop, transport, remap, every halo
  // node — two timesteps, compared field by field at 0 ULP.
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = 2;
  cfg.dt = 300.0;

  const auto model = fv3::baroclinic_model(cfg, 6);
  verify::DistributedVerifyOptions opt;
  opt.thread_budgets = {2};
  opt.repetitions = 1;
  opt.steps = 2;
  const verify::EquivalenceReport report = verify::check_distributed_agrees(
      model->program(), model->partitioner(), cfg.npz, 3, opt, model->rank_domains());
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

TEST(Distributed, SingleBitDivergenceFailsAndIsNamed) {
  // The harness is not vacuous: one flipped mantissa bit in one cell of one
  // rank fails the shared comparison, which names the rank, field and cell.
  const ir::Program p = make_diffusion_program();
  const auto doms = launch_domains(grid::Partitioner::for_ranks(12, 6), 3);
  std::vector<FieldCatalog> ref = verify::seeded_catalogs(p, doms, 0xB17);
  std::vector<FieldCatalog> got = verify::seeded_catalogs(p, doms, 0xB17);
  double& cell = got[4].at("q")(5, -1, 1);
  cell = std::bit_cast<double>(std::bit_cast<uint64_t>(cell) ^ 1u);

  const verify::DomainResult dr =
      verify::compare_ranks_bitwise(bind_ranks(ref, doms), bind_ranks(got, doms));
  EXPECT_FALSE(dr.ok);
  ASSERT_EQ(dr.fields.size(), 1u);
  EXPECT_EQ(dr.fields[0].field, "r4/q");
  EXPECT_EQ(dr.fields[0].max_ulps, 1.0);
  const verify::EquivalenceReport report{false, 0xB17, {dr}};
  EXPECT_NE(report.first_failure().find("'r4/q' diverges"), std::string::npos);
  EXPECT_NE(report.first_failure().find("at (5,-1,1)"), std::string::npos)
      << report.first_failure();
}

TEST(Distributed, RankFailurePropagatesAndAbortsChannel) {
  // A program whose stencil divides by a field that rank 0 zeroes is too
  // contrived; instead drive the failure through a rank-count mismatch at
  // construction and through a missing field at step time.
  const ir::Program p = make_diffusion_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  const HaloUpdater halo(part, 3);
  const auto doms = launch_domains(part, 3);
  std::vector<FieldCatalog> cats = verify::seeded_catalogs(p, doms, 0xABC);
  // Rank 2's catalog is empty: its thread throws on the first field lookup,
  // and the abort must unblock every other rank's recv.
  cats[2] = FieldCatalog{};
  RuntimeOptions opt;
  opt.channel.recv_timeout_seconds = 30.0;
  ConcurrentRuntime rt(p, halo, bind_ranks(cats, doms), opt);
  EXPECT_THROW(rt.step(), Error);
}

// ---- Channel ---------------------------------------------------------------

TEST(Channel, RecvBlocksUntilCrossThreadSend) {
  ConcurrentComm comm(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    comm.isend(0, 1, 4, {42.0});
  });
  const auto data = comm.recv(1, 0, 4);  // blocks until the send lands
  sender.join();
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 42.0);
  EXPECT_TRUE(comm.all_drained());
}

TEST(Channel, FifoPreservedUnderJitter) {
  ConcurrentComm::Options opt;
  opt.arrival_jitter_seed = 7;
  opt.arrival_jitter_max_us = 300;
  ConcurrentComm comm(2, opt);
  for (int i = 0; i < 16; ++i) comm.isend(0, 1, 1, {static_cast<double>(i)});
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(comm.recv(1, 0, 1)[0], static_cast<double>(i));
  }
}

TEST(Channel, AbortWakesBlockedRecv) {
  ConcurrentComm comm(2);
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    comm.abort("neighbor died");
  });
  try {
    (void)comm.recv(1, 0, 4);
    FAIL() << "expected abort to interrupt recv";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("neighbor died"), std::string::npos);
  }
  aborter.join();
}

TEST(Channel, ConcurrentAbortsKeepFirstReasonAndAppendRest) {
  // Two ranks failing at once race to abort the channel. The first reason
  // must win the headline and the second must still be recorded — losing
  // either would hide a root cause from the failure report.
  for (int trial = 0; trial < 20; ++trial) {
    ConcurrentComm comm(2);
    std::thread a([&] { comm.abort("rank 0 died"); });
    std::thread b([&] { comm.abort("rank 1 died"); });
    a.join();
    b.join();
    try {
      (void)comm.recv(1, 0, 4);
      FAIL() << "expected abort to interrupt recv";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("rank 0 died"), std::string::npos) << msg;
      EXPECT_NE(msg.find("rank 1 died"), std::string::npos) << msg;
      EXPECT_NE(msg.find("; also: "), std::string::npos) << msg;
    }
  }
}

TEST(Channel, TimeoutErrorListsPendingMessages) {
  ConcurrentComm::Options opt;
  opt.recv_timeout_seconds = 0.05;
  ConcurrentComm comm(3, opt);
  comm.isend(0, 1, 7, {1.0, 2.0, 3.0});
  try {
    (void)comm.recv(2, 1, 5);  // never sent
    FAIL() << "expected timeout";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("recv deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0->1 tag 7"), std::string::npos) << msg;
  }
}

TEST(Channel, CountersConsistentUnderConcurrency) {
  ConcurrentComm comm(4);
  std::vector<std::thread> threads;
  for (int src = 0; src < 4; ++src) {
    threads.emplace_back([&, src] {
      for (int m = 0; m < 50; ++m) {
        comm.isend(src, (src + 1) % 4, 1, {1.0, 2.0});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(comm.total_messages(), 200);
  EXPECT_EQ(comm.total_bytes(), 200 * 2 * 8);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(comm.messages_from(r), 50);
    EXPECT_EQ(comm.bytes_from(r), 50 * 2 * 8);
  }
  for (int dst = 0; dst < 4; ++dst) {
    for (int m = 0; m < 50; ++m) (void)comm.recv(dst, (dst + 3) % 4, 1);
  }
  EXPECT_TRUE(comm.all_drained());
}

}  // namespace
}  // namespace cyclone::comm
