#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/elastic.hpp"
#include "comm/simcomm.hpp"
#include "comm/verify_elastic.hpp"
#include "core/verify/corpus.hpp"
#include "core/verify/verify.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::comm {
namespace {

using verify::seeded_catalogs;

/// 0-ULP check of an elastic run's owned cells against the static-membership
/// lockstep reference (verify::lockstep_owned).
void expect_bitwise_vs_reference(const ElasticRuntime& ert, const FieldCatalog& ref) {
  const verify::DomainResult dr =
      verify::compare_owned(ref, ert.partitioner(), ert.rank_domains());
  EXPECT_TRUE(dr.ok) << verify::EquivalenceReport{false, 0, {dr}}.first_failure();
}

// ---- Membership plan parsing ----------------------------------------------

TEST(MembershipPlan, ParsesScript) {
  const MembershipPlan plan = MembershipPlan::parse("2:6,5:24");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].at_step, 2);
  EXPECT_EQ(plan.events[0].target_ranks, 6);
  EXPECT_EQ(plan.events[1].at_step, 5);
  EXPECT_EQ(plan.events[1].target_ranks, 24);
  EXPECT_TRUE(MembershipPlan::parse("").empty());
}

TEST(MembershipPlan, RejectsMalformedScripts) {
  EXPECT_THROW(MembershipPlan::parse("2:6,nope"), std::exception);
  EXPECT_THROW(MembershipPlan::parse("2"), std::exception);
  EXPECT_THROW(MembershipPlan::parse("2:6:7"), std::exception);
  EXPECT_THROW(MembershipPlan::parse("-1:6"), std::exception);
}

// ---- Fault-plan re-keying --------------------------------------------------

TEST(RekeyPlan, RemapsRankScopedFieldsModuloRoster) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.25;
  plan.failure = FaultPlan::Failure::Crash;
  plan.fail_rank = 20;
  plan.only_src = 17;
  const FaultPlan out = rekey_plan(plan, 6, /*clear_failure=*/false);
  EXPECT_EQ(out.seed, 42u);
  EXPECT_EQ(out.drop_rate, 0.25);
  EXPECT_EQ(out.failure, FaultPlan::Failure::Crash);
  EXPECT_EQ(out.fail_rank, 20 % 6);
  EXPECT_EQ(out.only_src, 17 % 6);
}

TEST(RekeyPlan, ClearFailureDropsOneShotCrashButKeepsMessageFaults) {
  FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.failure = FaultPlan::Failure::Crash;
  plan.fail_rank = 3;
  const FaultPlan out = rekey_plan(plan, 12, /*clear_failure=*/true);
  EXPECT_EQ(out.failure, FaultPlan::Failure::None);
  EXPECT_EQ(out.fail_rank, -1);
  EXPECT_EQ(out.drop_rate, 0.1);
}

// ---- Checkpoint retention --------------------------------------------------

TEST(MemoryCheckpointStore, KeepsOnlyLastKSnapshotsOldestFirst) {
  const ir::Program p = verify::make_elastic_program(1);
  const grid::Partitioner part = grid::Partitioner::for_ranks(6, 6);
  const auto doms = launch_domains(part, 2);
  auto cats = seeded_catalogs(p, doms, 7);
  auto ranks = bind_ranks(cats, doms);

  MemoryCheckpointStore store(2);
  store.save(0, ranks);
  store.save(1, ranks);
  EXPECT_EQ(store.retained(), 2);
  store.save(2, ranks);
  EXPECT_EQ(store.retained(), 2);
  EXPECT_EQ(store.retained_steps(), (std::vector<long>{1, 2}));
  EXPECT_EQ(store.restore(ranks), 2);
}

TEST(ElasticCheckpointStore, EvictsOldestCompleteSnapshots) {
  const ir::Program p = verify::make_elastic_program(1);
  const grid::Partitioner part = grid::Partitioner::for_ranks(6, 6);
  const auto doms = launch_domains(part, 2);
  auto cats = seeded_catalogs(p, doms, 11);
  auto ranks = bind_ranks(cats, doms);

  ElasticCheckpointStore store(2);
  store.set_roster(part);
  for (long s = 0; s < 4; ++s) store.save(s, ranks);
  EXPECT_EQ(store.retained(), 2);
  EXPECT_EQ(store.partials(), 0);
  EXPECT_EQ(store.retained_steps(), (std::vector<long>{2, 3}));
  EXPECT_EQ(store.restore(ranks), 3);
}

TEST(ElasticCheckpointStore, CrashDuringMigrationLeavesPartialThatGcReclaims) {
  const ir::Program p = verify::make_elastic_program(1);
  const grid::Partitioner part = grid::Partitioner::for_ranks(6, 6);
  const auto doms = launch_domains(part, 2);
  auto cats = seeded_catalogs(p, doms, 13);
  auto ranks = bind_ranks(cats, doms);

  ElasticCheckpointStore store(3);
  store.set_roster(part);
  store.save(0, ranks);
  ASSERT_EQ(store.retained(), 1);

  // Model a rank dying mid-migration: its catalog lacks a field the
  // assembly walk expects, so save() throws with the snapshot half-built.
  FieldCatalog broken;
  std::vector<RankDomain> torn = ranks;
  torn[3].catalog = &broken;
  EXPECT_THROW(store.save(1, torn), std::exception);
  EXPECT_EQ(store.retained(), 1);
  EXPECT_EQ(store.partials(), 1);

  // restore() skips the partial and lands on the last complete snapshot.
  EXPECT_EQ(store.restore(ranks), 0);
  store.gc();
  EXPECT_EQ(store.partials(), 0);
  EXPECT_EQ(store.retained(), 1);
}

TEST(ElasticCheckpointStore, MigratesStateAcrossRosters) {
  const ir::Program p = verify::make_elastic_program(1);
  const int n = 12, nk = 3;
  const grid::Partitioner big = grid::Partitioner::for_ranks(n, 24);
  const auto big_doms = launch_domains(big, nk);
  auto big_cats = seeded_catalogs(p, big_doms, 17);
  auto big_ranks = bind_ranks(big_cats, big_doms);
  const auto want = assemble_owned(big, big_ranks, "q");

  ElasticCheckpointStore store(2);
  store.set_roster(big);
  store.save(5, big_ranks);

  // Scatter onto a 6-rank roster with empty catalogs: restore() must create
  // every field from the snapshot's shape metadata and fill owned cells.
  const grid::Partitioner small = grid::Partitioner::for_ranks(n, 6);
  const auto small_doms = launch_domains(small, nk);
  std::vector<FieldCatalog> small_cats(small_doms.size());
  auto small_ranks = bind_ranks(small_cats, small_doms);
  store.set_roster(small);
  EXPECT_EQ(store.restore(small_ranks), 5);

  EXPECT_EQ(want, assemble_owned(small, small_ranks, "q"));
}

// ---- Load balancer ---------------------------------------------------------

TEST(LoadBalancer, TriggersOnlyPastWarmupAndThreshold) {
  LoadBalancerOptions opt;
  opt.enabled = true;
  opt.trigger_ratio = 1.5;
  opt.warmup_steps = 2;
  LoadBalancer lb(opt);
  lb.reset(4);
  lb.observe({1.0, 1.0, 1.0, 1.0});
  EXPECT_FALSE(lb.should_rebalance());  // balanced
  lb.observe({1.0, 1.0, 1.0, 4.0});
  lb.observe({1.0, 1.0, 1.0, 4.0});
  EXPECT_GT(lb.imbalance_ratio(), 1.5);
  EXPECT_TRUE(lb.should_rebalance());
  lb.reset(4);  // roster change restarts the warmup
  EXPECT_FALSE(lb.should_rebalance());
}

// ---- Elastic runs ----------------------------------------------------------

TEST(Elastic, ShrinkGrowRoundTripIsBitwiseVsLockstep) {
  verify::ElasticVerifyOptions opt;
  opt.backends = {"interp"};
  opt.seeds = 2;
  opt.steps = 6;
  opt.initial_ranks = 24;
  opt.shrink_ranks = 6;
  opt.shrink_at = 2;
  opt.grow_at = 4;
  opt.include_kill_rejoin = false;
  const auto report =
      verify::check_elastic_agrees(verify::make_elastic_program(), 12, 3, 3, opt);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

TEST(Elastic, KillThenRejoinUnderChaosIsBitwiseVsLockstep) {
  verify::ElasticVerifyOptions opt;
  opt.backends = {"interp"};
  opt.seeds = 2;
  opt.steps = 6;
  opt.initial_ranks = 12;
  opt.shrink_ranks = 6;
  opt.shrink_at = 2;
  opt.grow_at = 4;
  opt.crash_step = 2;
  opt.include_kill_rejoin = true;
  const auto report =
      verify::check_elastic_agrees(verify::make_elastic_program(), 12, 3, 3, opt);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

TEST(Elastic, InvalidRosterIsRejectedMidRunWithStructuredError) {
  const ir::Program p = verify::make_elastic_program();
  const int n = 12, nk = 3, steps = 5;
  const uint64_t seed = 0xBADC0DE;
  const grid::Partitioner part = grid::Partitioner::for_ranks(n, 12);
  const auto doms = launch_domains(part, nk);
  auto cats = seeded_catalogs(p, doms, seed);

  ElasticOptions eo;
  eo.plan.events = {{1, 10}, {3, 6}};  // 10 is not a multiple of 6 -> rejected
  ElasticRuntime ert(p, nk, 3, part, std::move(cats), eo);
  const ElasticReport report = ert.run(steps);

  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.rejected_resizes, 1);
  EXPECT_EQ(report.resizes, 1);  // only the valid shrink was honored
  ASSERT_EQ(report.resize_log.size(), 2u);
  EXPECT_NE(report.resize_log[0].error.find("multiple of 6"), std::string::npos)
      << report.resize_log[0].error;
  EXPECT_EQ(ert.num_ranks(), 6);
  EXPECT_EQ(ert.halo().pool_outstanding(), 0);

  const FieldCatalog ref = verify::lockstep_owned(
      p, grid::Partitioner::for_ranks(n, 12), nk, 3, seed, steps);
  expect_bitwise_vs_reference(ert, ref);
}

TEST(Elastic, ResizeToMinimumRosterRuns) {
  const ir::Program p = verify::make_elastic_program();
  const int n = 12, nk = 2, steps = 4;
  const uint64_t seed = 0x600D;
  const grid::Partitioner part = grid::Partitioner::for_ranks(n, 24);
  const auto doms = launch_domains(part, nk);
  auto cats = seeded_catalogs(p, doms, seed);

  ElasticOptions eo;
  eo.plan.events = {{1, 6}};
  ElasticRuntime ert(p, nk, 3, part, std::move(cats), eo);
  const ElasticReport report = ert.run(steps);

  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.resizes, 1);
  EXPECT_EQ(ert.num_ranks(), 6);
  ASSERT_EQ(report.resize_log.size(), 1u);
  EXPECT_EQ(report.resize_log[0].from_ranks, 24);
  EXPECT_EQ(report.resize_log[0].to_ranks, 6);
  EXPECT_GE(report.resize_log[0].total_seconds(), 0.0);
  EXPECT_EQ(ert.halo().pool_outstanding(), 0);

  const FieldCatalog ref = verify::lockstep_owned(
      p, grid::Partitioner::for_ranks(n, 24), nk, 3, seed, steps);
  expect_bitwise_vs_reference(ert, ref);
}

TEST(Elastic, InjectedImbalanceTriggersRebalanceAndStaysBitwise) {
  // One trip per pass: most of the straggler's spin lands after its halo
  // sends, so its wall-time EWMA diverges from the ranks that only wait on
  // the exchange (with more trips the whole roster inherits the delay).
  const ir::Program p = verify::make_elastic_program(1);
  const int n = 6, nk = 2, steps = 8;
  const uint64_t seed = 0x51077;
  const grid::Partitioner part = grid::Partitioner::for_ranks(n, 6);
  const auto doms = launch_domains(part, nk);
  auto cats = seeded_catalogs(p, doms, seed);

  ElasticOptions eo;
  eo.runtime.imbalance.slow_rank = 2;
  eo.runtime.imbalance.extra_us_per_state = 2000;
  eo.balancer.enabled = true;
  eo.balancer.trigger_ratio = 1.5;
  eo.balancer.warmup_steps = 2;
  ElasticRuntime ert(p, nk, 3, part, std::move(cats), eo);
  const ElasticReport report = ert.run(steps);

  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_GE(report.rebalances, 1);
  const bool has_imbalance_record =
      std::any_of(report.resize_log.begin(), report.resize_log.end(),
                  [](const ResizeRecord& r) { return r.trigger == "imbalance"; });
  EXPECT_TRUE(has_imbalance_record);
  EXPECT_EQ(ert.halo().pool_outstanding(), 0);

  // The spin is wall-time only: numerics must match the unperturbed run.
  const FieldCatalog ref = verify::lockstep_owned(
      p, grid::Partitioner::for_ranks(n, 6), nk, 3, seed, steps);
  expect_bitwise_vs_reference(ert, ref);
}

TEST(Elastic, ReportJsonCarriesResizeLogChannelAndHealth) {
  const ir::Program p = verify::make_elastic_program();
  const int n = 12, nk = 2;
  const grid::Partitioner part = grid::Partitioner::for_ranks(n, 12);
  const auto doms = launch_domains(part, nk);
  auto cats = seeded_catalogs(p, doms, 0xFEED);

  ElasticOptions eo;
  eo.plan.events = {{1, 6}, {2, 12}};
  ElasticRuntime ert(p, nk, 3, part, std::move(cats), eo);
  const ElasticReport report = ert.run(4);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(report.health.size(), 12u);
  for (const auto& h : report.health) {
    EXPECT_GT(h.heartbeats, 0);
    EXPECT_GT(h.ewma_step_seconds, 0.0);
    EXPECT_EQ(h.last_seen_step, 3);
  }

  const std::string json = elastic_report_to_json(report);
  for (const char* key :
       {"\"ok\"", "\"resizes\"", "\"resize_log\"", "\"trigger\"", "\"snapshot_seconds\"",
        "\"rebuild_seconds\"", "\"refresh_seconds\"", "\"channel\"", "\"health\"",
        "\"last_seen_step\"", "\"ewma_step_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
}

// ---- RunReport health (satellite: per-rank heartbeat observability) --------

TEST(RunReport, ExposesPerRankHealthAndSerializesToJson) {
  const ir::Program p = verify::make_elastic_program(1);
  const grid::Partitioner part = grid::Partitioner::for_ranks(6, 6);
  const HaloUpdater halo(part, 3);
  const auto doms = launch_domains(part, 2);
  auto cats = seeded_catalogs(p, doms, 0xCAFE);
  auto ranks = bind_ranks(cats, doms);

  ConcurrentRuntime rt(p, halo, std::move(ranks));
  const RunReport report = rt.run(3);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(report.health.size(), 6u);
  for (const auto& h : report.health) {
    EXPECT_EQ(h.last_seen_step, 2);
    EXPECT_GT(h.heartbeats, 0);
    EXPECT_GT(h.ewma_step_seconds, 0.0);
  }

  const std::string json = run_report_to_json(report);
  for (const char* key : {"\"ok\"", "\"channel\"", "\"health\"", "\"rank\"",
                          "\"last_seen_step\"", "\"heartbeats\"", "\"ewma_step_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
}

// ---- Report JSON rendering (byte-for-byte) ----------------------------------

ReliabilityCounters sample_counters() {
  ReliabilityCounters c;
  c.reliable_sends = 1;
  c.retransmits = 2;
  c.corrupt_detected = 3;
  c.dups_dropped = 4;
  c.reorders_healed = 5;
  c.drops_injected = 6;
  c.dups_injected = 7;
  c.reorders_injected = 8;
  c.corrupts_injected = 9;
  c.delays_injected = 10;
  return c;
}

std::vector<RankHealth> sample_health() {
  return {RankHealth{0, 3, 12, 0.25}, RankHealth{1, 2, 11, 1.0 / 3.0}};
}

RunReport hand_built_run_report() {
  RunReport r;
  r.ok = false;
  r.steps_completed = 3;
  r.restarts = 1;
  r.checkpoints = 4;
  r.rolled_back_steps = 2;
  r.failure = "rank \"2\" died\\here\x01!";
  r.channel = sample_counters();
  r.health = sample_health();
  return r;
}

ElasticReport hand_built_elastic_report() {
  ElasticReport r;
  r.steps_completed = 8;
  r.resizes = 2;
  r.rebalances = 1;
  r.rejoins = 1;
  r.deaths = 1;
  r.rejected_resizes = 1;
  r.restarts = 1;
  r.checkpoints = 5;
  r.rolled_back_steps = 1;
  r.failure = "tab\there \"q\" \\";
  ResizeRecord rec;
  rec.at_step = 2;
  rec.from_ranks = 24;
  rec.to_ranks = 6;
  rec.trigger = "script";
  rec.error = "bad\n\"count\"";
  rec.snapshot_seconds = 0.5;
  rec.rebuild_seconds = 0.125;
  rec.refresh_seconds = 1.5e-3;
  r.resize_log = {rec};
  r.channel = sample_counters();
  r.health = sample_health();
  return r;
}

// Both renderers share the escaping and the channel/health fragments; the
// literals pin their output, quote, backslash and control characters included.
TEST(ReportJson, HandBuiltReportsRenderByteForByte) {
  EXPECT_EQ(run_report_to_json(hand_built_run_report()),
            R"({"ok":false,"steps_completed":3,"restarts":1,"checkpoints":4)"
            R"(,"rolled_back_steps":2,"failure":"rank \"2\" died\\here !")"
            R"(,"channel":{"reliable_sends":1,"retransmits":2,"corrupt_detected":3)"
            R"(,"dups_dropped":4,"reorders_healed":5,"drops_injected":6,"dups_injected":7)"
            R"(,"reorders_injected":8,"corrupts_injected":9,"delays_injected":10)"
            R"(,"faults_injected":40},"health":[{"rank":0,"last_seen_step":3,"heartbeats":12)"
            R"(,"ewma_step_seconds":0.25},{"rank":1,"last_seen_step":2,"heartbeats":11)"
            R"(,"ewma_step_seconds":0.333333}]})");
  EXPECT_EQ(elastic_report_to_json(hand_built_elastic_report()),
            R"({"ok":true,"steps_completed":8,"resizes":2,"rebalances":1,"rejoins":1,"deaths":1)"
            R"(,"rejected_resizes":1,"restarts":1,"checkpoints":5,"rolled_back_steps":1)"
            R"(,"failure":"tab here \"q\" \\","resize_log":[{"at_step":2,"from_ranks":24)"
            R"(,"to_ranks":6,"trigger":"script","error":"bad \"count\"","snapshot_seconds":0.5)"
            R"(,"rebuild_seconds":0.125,"refresh_seconds":0.0015,"total_seconds":0.6265}])"
            R"(,"channel":{"reliable_sends":1,"retransmits":2,"corrupt_detected":3)"
            R"(,"dups_dropped":4,"reorders_healed":5,"drops_injected":6,"dups_injected":7)"
            R"(,"reorders_injected":8,"corrupts_injected":9,"delays_injected":10)"
            R"(,"faults_injected":40},"health":[{"rank":0,"last_seen_step":3,"heartbeats":12)"
            R"(,"ewma_step_seconds":0.25},{"rank":1,"last_seen_step":2,"heartbeats":11)"
            R"(,"ewma_step_seconds":0.333333}]})");
}

TEST(ReportJson, ReliabilityCountersAddFieldByField) {
  ReliabilityCounters sum = sample_counters();
  sum += sample_counters();
  EXPECT_EQ(sum.reliable_sends, 2);
  EXPECT_EQ(sum.delays_injected, 20);
  EXPECT_EQ(sum.faults_injected(), 2 * sample_counters().faults_injected());
}

// ---- Corpus checksum invariance across a resize round-trip -----------------

TEST(Elastic, GoldenChecksumInvariantAcross24To6To24) {
  const ir::Program p = verify::make_elastic_program();
  const int n = 12, nk = 3, steps = 6;
  const uint64_t seed = 0x601DEA;
  const grid::Partitioner part = grid::Partitioner::for_ranks(n, 24);
  const auto doms = launch_domains(part, nk);
  auto cats = seeded_catalogs(p, doms, seed);

  ElasticOptions eo;
  eo.plan.events = {{2, 6}, {4, 24}};
  ElasticRuntime ert(p, nk, 3, part, std::move(cats), eo);
  const ElasticReport report = ert.run(steps);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_EQ(report.resizes, 2);

  auto views = [&](const grid::Partitioner& pt, const std::vector<RankDomain>& rks) {
    std::vector<verify::RankView> vs;
    for (int r = 0; r < pt.num_ranks(); ++r) {
      const auto info = pt.info(r);
      vs.push_back(verify::RankView{rks[static_cast<size_t>(r)].catalog, info.tile, info.i0,
                                    info.j0, info.ni, info.nj});
    }
    return vs;
  };

  // Static 24-rank lockstep reference, assembled through the same corpus
  // machinery the golden files use.
  const grid::Partitioner ref_part = grid::Partitioner::for_ranks(n, 24);
  const HaloUpdater ref_halo(ref_part, 3);
  auto ref_cats = seeded_catalogs(p, doms, seed);
  auto ref_ranks = bind_ranks(ref_cats, doms);
  SimComm sim(ref_part.num_ranks());
  for (int t = 0; t < steps; ++t) run_lockstep_step(p, ref_halo, ref_ranks, sim);

  const verify::GoldenField want =
      verify::assemble_field("q", grid::kNumFaces, n, views(ref_part, ref_ranks));
  const verify::GoldenField got =
      verify::assemble_field("q", grid::kNumFaces, n, views(ert.partitioner(), ert.rank_domains()));
  EXPECT_EQ(want.checksum, got.checksum);
  EXPECT_EQ(want, got);
}

}  // namespace
}  // namespace cyclone::comm
