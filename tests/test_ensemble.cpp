#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/verify_distributed.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/verify/corpus.hpp"
#include "ensemble/ensemble.hpp"
#include "ensemble/service.hpp"
#include "ensemble/verify_ensemble.hpp"

namespace cyclone::ensemble {
namespace {

swe::SweConfig small_swe() {
  swe::SweConfig cfg;
  cfg.npx = 12;
  cfg.ntracers = 2;
  return cfg;
}

fv3::FvConfig small_dycore() {
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 4;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = 1;
  cfg.dt = 300.0;
  return cfg;
}

/// Every prognostic of every rank of `a` and `b` agrees bit for bit.
void expect_prognostics_bitwise(swe::SweModel& a, swe::SweModel& b, const swe::SweConfig& cfg,
                                const std::string& what) {
  const verify::DomainResult dr = verify::compare_ranks_bitwise(
      a.rank_domains(), b.rank_domains(), {}, swe::SweState::prognostic_names(cfg.ntracers));
  EXPECT_TRUE(dr.ok) << what << ": " << verify::EquivalenceReport{false, 0, {dr}}.first_failure();
}

// --- Perturbation generator -------------------------------------------------

TEST(EnsemblePerturb, FactorIsPureAndControlIsIdentity) {
  const MemberSpec control{42, 0};
  EXPECT_EQ(perturbation_factor(control, "h", 3, 5, 7, 0, 1e-3), 1.0);

  const MemberSpec spec{42, 3};
  const double f1 = perturbation_factor(spec, "h", 3, 5, 7, 0, 1e-3);
  const double f2 = perturbation_factor(spec, "h", 3, 5, 7, 0, 1e-3);
  EXPECT_EQ(f1, f2);  // pure function: bit-identical on every call
  EXPECT_GE(f1, 1.0 - 1e-3);
  EXPECT_LT(f1, 1.0 + 1e-3);

  // Every argument decorrelates the stream.
  EXPECT_NE(f1, perturbation_factor({42, 4}, "h", 3, 5, 7, 0, 1e-3));
  EXPECT_NE(f1, perturbation_factor({43, 3}, "h", 3, 5, 7, 0, 1e-3));
  EXPECT_NE(f1, perturbation_factor(spec, "u", 3, 5, 7, 0, 1e-3));
  EXPECT_NE(f1, perturbation_factor(spec, "h", 2, 5, 7, 0, 1e-3));
  EXPECT_NE(f1, perturbation_factor(spec, "h", 3, 6, 7, 0, 1e-3));
  EXPECT_NE(f1, perturbation_factor(spec, "h", 3, 5, 8, 0, 1e-3));
}

TEST(EnsemblePerturb, SameSeedSameICsAcrossProcesses) {
  // Two independently-built models stand in for two processes: same spec
  // must give bit-identical initial conditions everywhere.
  const swe::SweConfig cfg = small_swe();
  const MemberSpec spec{7, 2};
  swe::SweModel a(cfg, 6);
  swe::SweModel b(cfg, 6);
  for (swe::SweModel* model : {&a, &b}) {
    apply_initial_condition(*model, "hill");
    perturb_model(*model, spec, 1e-3);
  }
  expect_prognostics_bitwise(a, b, cfg, "same spec");
}

TEST(EnsemblePerturb, PerturbedICsAreDecompositionInvariant) {
  // The factor depends only on global coordinates, so assembling the global
  // perturbed IC from a 6-rank and a 24-rank decomposition must agree.
  const swe::SweConfig cfg = small_swe();
  const MemberSpec spec{11, 1};
  std::vector<verify::GoldenField> assembled[2];
  const int rank_counts[2] = {6, 24};
  for (int variant = 0; variant < 2; ++variant) {
    swe::SweModel model(cfg, rank_counts[variant]);
    apply_initial_condition(model, "vortex");
    perturb_model(model, spec, 1e-3);
    std::vector<verify::RankView> views;
    for (int r = 0; r < model.num_ranks(); ++r) {
      const grid::RankInfo info = model.partitioner().info(r);
      views.push_back(verify::RankView{&model.state(r).catalog(), info.tile, info.i0, info.j0,
                                       info.ni, info.nj});
    }
    for (const std::string& name : swe::SweState::prognostic_names(cfg.ntracers)) {
      assembled[variant].push_back(
          verify::assemble_field(name, grid::kNumFaces, model.partitioner().n(), views));
    }
  }
  ASSERT_EQ(assembled[0].size(), assembled[1].size());
  for (size_t f = 0; f < assembled[0].size(); ++f) {
    EXPECT_EQ(assembled[0][f], assembled[1][f]) << assembled[0][f].name;
  }
}

// --- Member-major arena -----------------------------------------------------

TEST(EnsembleArena, MemberBlocksAreAdjacentAndMemberMajor) {
  const swe::SweConfig cfg = small_swe();
  EnsembleOptions opts;
  opts.members = default_members(1, 3);
  SweEnsemble runner(cfg, std::move(opts));
  // Every member's copy of a (rank, field) sits in one block at offset
  // member * alloc_elems.
  for (int r = 0; r < runner.member(0).num_ranks(); ++r) {
    FieldD& f0 = runner.member(0).state(r).f("h");
    ASSERT_TRUE(f0.is_view());
    const ptrdiff_t alloc = static_cast<ptrdiff_t>(f0.shape().alloc_elems());
    for (int m = 1; m < runner.members(); ++m) {
      FieldD& fm = runner.member(m).state(r).f("h");
      ASSERT_TRUE(fm.is_view());
      EXPECT_EQ(fm.data() - f0.data(), m * alloc) << "rank " << r << " member " << m;
    }
  }
  EXPECT_GT(runner.arena().num_blocks(), 0u);
  EXPECT_GT(runner.arena().bytes(), 0u);
}

TEST(EnsembleArena, FieldCopyOfViewOwnsItsStorage) {
  // Checkpoint stores snapshot fields by value; a snapshot aliasing live
  // arena memory would roll back nothing.
  const swe::SweConfig cfg = small_swe();
  EnsembleOptions opts;
  opts.members = default_members(1, 2);
  SweEnsemble runner(cfg, std::move(opts));
  runner.init("hill");
  FieldD& live = runner.member(1).state(0).f("h");
  FieldD snapshot = live;  // copy: must deep-copy
  EXPECT_FALSE(snapshot.is_view());
  const double before = live(0, 0, 0);
  live(0, 0, 0) = before + 1.0;
  EXPECT_EQ(snapshot(0, 0, 0), before);
  live.copy_from(snapshot);  // restore writes back *through* the view
  EXPECT_EQ(live(0, 0, 0), before);
  EXPECT_TRUE(live.is_view());
}

// --- Initial-state snapshot -------------------------------------------------

/// Every field of every rank of `a` and `b` holds the same bits over its
/// whole allocation, halos and padding included.
void expect_every_field_bitwise(fv3::ModelDriver& a, fv3::ModelDriver& b,
                                const std::string& what) {
  ASSERT_EQ(a.rank_domains().size(), b.rank_domains().size());
  for (size_t r = 0; r < a.rank_domains().size(); ++r) {
    FieldCatalog& ca = *a.rank_domains()[r].catalog;
    FieldCatalog& cb = *b.rank_domains()[r].catalog;
    ASSERT_EQ(ca.names(), cb.names());
    for (const std::string& name : ca.names()) {
      const FieldD& fa = ca.at(name);
      const FieldD& fb = cb.at(name);
      ASSERT_EQ(fa.shape().alloc_elems(), fb.shape().alloc_elems());
      EXPECT_EQ(std::memcmp(fa.data(), fb.data(), fa.shape().alloc_elems() * sizeof(double)), 0)
          << what << ": rank " << r << " field " << name;
    }
  }
}

/// Restoring a snapshot of `ic` into a fresh model and perturbing it stores
/// exactly what a fresh apply_initial_condition plus the perturbation does.
template <class Model>
void check_snapshot_restore(const typename ModelTraits<Model>::Config& cfg,
                            const std::string& ic) {
  const MemberSpec spec{0x1C5ull, 3};
  Model source(cfg, 6);
  apply_initial_condition(source, ic);
  const InitialState snapshot = InitialState::capture(source);
  EXPECT_GT(snapshot.bytes(), 0u);

  Model restored(cfg, 6);
  snapshot.restore(restored);
  perturb_model(restored, spec, 1e-3);
  Model fresh(cfg, 6);
  apply_initial_condition(fresh, ic);
  perturb_model(fresh, spec, 1e-3);
  expect_every_field_bitwise(restored, fresh, ModelTraits<Model>::core + std::string(" ") + ic);
}

TEST(EnsembleInitialState, RestorePlusPerturbMatchesFreshInitForEveryIc) {
  for (const char* ic : {"baro", "solid"}) {
    check_snapshot_restore<fv3::DistributedModel>(small_dycore(), ic);
  }
  for (const char* ic : {"hill", "vortex", "jet"}) {
    check_snapshot_restore<swe::SweModel>(small_swe(), ic);
  }
}

TEST(EnsembleInitialState, SnapshotKeepsOnlyNonZeroFields) {
  fv3::DistributedModel model(small_dycore(), 6);
  ensemble::apply_initial_condition(model, "baro");
  const InitialState snapshot = InitialState::capture(model);
  size_t model_bytes = 0;
  for (int r = 0; r < model.num_ranks(); ++r) model_bytes += model.state(r).catalog().owned_bytes();
  // The transients and the other all-zero intermediates stay out: the
  // dycore's snapshot is well under half its state.
  EXPECT_LT(2 * snapshot.bytes(), model_bytes);
}

// --- Batched vs solo (the tentpole contract) --------------------------------

TEST(EnsembleBatched, SweMatchesSoloAcrossBackendsAndMemberCounts) {
  EnsembleVerifyOptions options;
  options.ic = "hill";
  options.steps = 2;
  options.member_counts = {1, 4};
  options.seeds = {0x5EEDull};
  const auto report = verify_batched_vs_solo<swe::SweModel>(small_swe(), options);
  EXPECT_TRUE(report.ok()) << (report.failures.empty() ? "no comparisons ran"
                                                       : report.failures.front());
  EXPECT_EQ(report.mismatches, 0);
}

TEST(EnsembleBatched, SweThirtyMembers) {
  // GEFS-scale member count on the cheap serial backend.
  EnsembleVerifyOptions options;
  options.ic = "vortex";
  options.steps = 1;
  options.member_counts = {30};
  options.backends = {exec::ExecBackend::Tape};
  options.seeds = {3};
  const auto report = verify_batched_vs_solo<swe::SweModel>(small_swe(), options);
  EXPECT_TRUE(report.ok()) << (report.failures.empty() ? "no comparisons ran"
                                                       : report.failures.front());
}

TEST(EnsembleBatched, SweTwentySeedSweep) {
  EnsembleVerifyOptions options;
  options.ic = "hill";
  options.steps = 1;
  options.member_counts = {4};
  options.backends = {exec::ExecBackend::Tape};
  options.seeds.clear();
  for (uint64_t s = 0; s < 20; ++s) options.seeds.push_back(0xA0 + s);
  const auto report = verify_batched_vs_solo<swe::SweModel>(small_swe(), options);
  EXPECT_TRUE(report.ok()) << (report.failures.empty() ? "no comparisons ran"
                                                       : report.failures.front());
  EXPECT_GE(report.comparisons, 20L * 4 * 6 * 3);  // seeds x members x ranks x fields(min)
}

TEST(EnsembleBatched, DycoreMatchesSoloAcrossBackends) {
  EnsembleVerifyOptions options;
  options.ic = "baro";
  options.steps = 1;
  options.member_counts = {1, 4};
  options.seeds = {0xD1CEull};
  const auto report = verify_batched_vs_solo<fv3::DistributedModel>(small_dycore(), options);
  EXPECT_TRUE(report.ok()) << (report.failures.empty() ? "no comparisons ran"
                                                       : report.failures.front());
}

TEST(EnsembleBatched, ConcurrentSchedulerMatchesSoloAtRanks6And24) {
  for (int ranks : {6, 24}) {
    EnsembleVerifyOptions options;
    options.ic = "hill";
    options.steps = 2;
    options.member_counts = {4};
    options.backends = {exec::ExecBackend::OpenMP};
    options.seeds = {0xC0ull};
    options.num_ranks = ranks;
    options.scheduler = EnsembleOptions::Scheduler::Concurrent;
    const auto report = verify_batched_vs_solo<swe::SweModel>(small_swe(), options);
    EXPECT_TRUE(report.ok()) << "ranks=" << ranks
                             << (report.failures.empty() ? " no comparisons ran"
                                                         : " " + report.failures.front());
  }
}

TEST(EnsembleBatched, BatchedAt24Ranks) {
  EnsembleVerifyOptions options;
  options.ic = "vortex";
  options.steps = 1;
  options.member_counts = {4};
  options.backends = {exec::ExecBackend::OpenMP};
  options.seeds = {0x24ull};
  options.num_ranks = 24;
  const auto report = verify_batched_vs_solo<swe::SweModel>(small_swe(), options);
  EXPECT_TRUE(report.ok()) << (report.failures.empty() ? "no comparisons ran"
                                                       : report.failures.front());
}

TEST(EnsembleBatched, MemberStepsAccounting) {
  EnsembleOptions opts;
  opts.members = default_members(1, 4);
  SweEnsemble runner(small_swe(), std::move(opts));
  runner.init("hill");
  runner.run(3);
  EXPECT_EQ(runner.member_steps(), 12);
}

// --- Resilient ensemble (crash mid-batch, recover, stay bitwise) ------------

TEST(EnsembleResilient, CrashedRankMidBatchRecoversBitwise) {
  const swe::SweConfig cfg = small_swe();
  const int steps = 2;
  EnsembleOptions opts;
  opts.members = default_members(0xFA11ull, 3);
  comm::FaultPlan faults;
  faults.seed = 0xFA11ull;
  faults.failure = comm::FaultPlan::Failure::Crash;
  faults.fail_rank = 2;
  faults.fail_step = 1;
  opts.runtime.faults = faults;
  SweEnsemble runner(cfg, std::move(opts));
  runner.init("hill");
  const comm::RunReport report = runner.run_resilient(steps);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.steps_completed, steps);
  EXPECT_GE(report.restarts, runner.members());  // every member's rank 2 died once

  // Recovered members must still match their clean solo replicas bit for bit.
  for (int m = 0; m < runner.members(); ++m) {
    auto solo = solo_member<swe::SweModel>(cfg, 6, exec::RunOptions{}, "hill",
                                           runner.options().members[static_cast<size_t>(m)],
                                           runner.options().amplitude);
    for (int s = 0; s < steps; ++s) solo->step();
    expect_prognostics_bitwise(runner.member(m), *solo, cfg, "member " + std::to_string(m));
  }
}

// --- Batch coalescer (pure policy) ------------------------------------------

ForecastRequest swe_request(const std::string& ic, int members, uint64_t seed, int steps = 1) {
  ForecastRequest r;
  r.core = "swe";
  r.ic = ic;
  r.npx = 12;
  r.ntracers = 2;
  r.members = members;
  r.seed = seed;
  r.steps = steps;
  return r;
}

TEST(ForecastCoalescer, MixedMemberCountsShareOneBatch) {
  std::vector<ForecastRequest> queue = {
      swe_request("hill", 4, 1),
      swe_request("hill", 2, 9),   // different seed, still coalescible
      swe_request("vortex", 2, 1), // different IC — not with this head
      swe_request("hill", 30, 1),  // same seed as head: 26 new specs
  };
  const auto picked = coalesce_batch(queue, 32);
  EXPECT_EQ(picked, (std::vector<size_t>{0, 1, 3}));  // roster 4 + 2 + 26 = 32
}

TEST(ForecastCoalescer, RespectsMemberCapAndSkipsOversized) {
  std::vector<ForecastRequest> queue = {
      swe_request("hill", 4, 1),
      swe_request("hill", 8, 2),  // would push the roster to 12 > 8 — skipped
      swe_request("hill", 2, 3),  // still fits after the skip
  };
  const auto picked = coalesce_batch(queue, 8);
  EXPECT_EQ(picked, (std::vector<size_t>{0, 2}));
}

TEST(ForecastCoalescer, IncompatibleRequestsNeverBatch) {
  ForecastRequest head = swe_request("hill", 2, 1, 2);
  ForecastRequest other_steps = head;
  other_steps.steps = 3;
  ForecastRequest other_backend = head;
  other_backend.backend = exec::ExecBackend::Jit;
  ForecastRequest other_chaos = head;
  other_chaos.chaos = true;
  ForecastRequest other_core = head;
  other_core.core = "dycore";
  other_core.ic = "baro";
  const std::vector<ForecastRequest> queue = {head, other_steps, other_backend, other_chaos,
                                              other_core};
  EXPECT_EQ(coalesce_batch(queue, 32), std::vector<size_t>{0});
}

TEST(ForecastCoalescer, HeadNeverStarves) {
  // A request larger than the cap still runs (the cap bounds coalescing,
  // not a single request).
  const std::vector<ForecastRequest> queue = {swe_request("hill", 64, 1),
                                              swe_request("hill", 1, 2)};
  EXPECT_EQ(coalesce_batch(queue, 8), std::vector<size_t>{0});
}

TEST(ForecastCoalescer, DuplicateSpecsDeduplicate) {
  // Same seed: the 2-member request is a subset of the head's roster, so it
  // rides along even at cap 4.
  const std::vector<ForecastRequest> queue = {swe_request("hill", 4, 5),
                                              swe_request("hill", 2, 5)};
  EXPECT_EQ(coalesce_batch(queue, 4), (std::vector<size_t>{0, 1}));
}

// --- Forecast service -------------------------------------------------------

TEST(ForecastService, ServesRequestBitwiseEqualToSoloRun) {
  ensemble::ForecastService service;
  auto ticket = service.submit(swe_request("hill", 2, 7, 2));
  const ForecastResult result = ticket.result.get();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.members.size(), 2u);
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_EQ(result.batch_members, 2);

  // The served fields must equal a local solo integration of each member.
  const swe::SweConfig cfg = standard_swe_config(12, 2);
  for (const MemberForecast& member : result.members) {
    auto solo = solo_member<swe::SweModel>(cfg, service.options().num_ranks, exec::RunOptions{},
                                           "hill", member.spec, service.options().amplitude);
    for (int s = 0; s < 2; ++s) solo->step();
    std::vector<verify::RankView> views;
    for (int r = 0; r < solo->num_ranks(); ++r) {
      const grid::RankInfo info = solo->partitioner().info(r);
      views.push_back(verify::RankView{&solo->state(r).catalog(), info.tile, info.i0, info.j0,
                                       info.ni, info.nj});
    }
    ASSERT_FALSE(member.fields.empty());
    for (const verify::GoldenField& field : member.fields) {
      const verify::GoldenField expected =
          verify::assemble_field(field.name, grid::kNumFaces, solo->partitioner().n(), views);
      EXPECT_EQ(field, expected) << "member " << member.spec.index << " field " << field.name;
    }
  }
}

TEST(ForecastService, ThreeRequestsWithMixedSeedsShareOneBatch) {
  ensemble::ForecastService service;
  // Occupy the single worker so the next three requests queue up together.
  auto busy = service.submit(swe_request("hill", 4, 1, 3));
  auto a = service.submit(swe_request("jet", 1, 2));  // roster {2:0}
  auto b = service.submit(swe_request("jet", 2, 3));  // roster {3:0, 3:1}
  auto c = service.submit(swe_request("jet", 1, 3));  // duplicate of {3:0}
  service.drain();
  const ForecastResult ra = a.result.get();
  const ForecastResult rb = b.result.get();
  const ForecastResult rc = c.result.get();
  ASSERT_TRUE(busy.result.get().ok && ra.ok && rb.ok && rc.ok);
  EXPECT_EQ(ra.coalesced_requests, 3);
  EXPECT_EQ(rb.coalesced_requests, 3);
  EXPECT_EQ(rc.coalesced_requests, 3);
  EXPECT_EQ(ra.batch_members, 3);  // deduplicated roster {2:0, 3:0, 3:1}
  // c's single member is bitwise b's first member — one integration served both.
  ASSERT_EQ(rc.members.size(), 1u);
  EXPECT_EQ(rc.members[0].fields, rb.members[0].fields);
}

TEST(ForecastService, OutOfOrderCompletionViaCoalescing) {
  ensemble::ForecastService service;
  auto busy = service.submit(swe_request("hill", 4, 1, 3));   // claims the worker
  auto loner = service.submit(swe_request("jet", 1, 2, 1));   // next head, steps=1
  auto stranded = service.submit(swe_request("vortex", 1, 3, 2));  // incompatible with loner
  auto rider = service.submit(swe_request("jet", 1, 4, 1));   // coalesces with loner
  service.drain();
  const ForecastResult r_stranded = stranded.result.get();
  const ForecastResult r_rider = rider.result.get();
  ASSERT_TRUE(r_stranded.ok && r_rider.ok);
  // rider was submitted after stranded but completed before it by riding
  // loner's batch.
  EXPECT_LT(r_rider.sequence, r_stranded.sequence);
  EXPECT_EQ(r_rider.coalesced_requests, 2);
  EXPECT_EQ(r_stranded.coalesced_requests, 1);
}

TEST(ForecastService, SharedMembersComputedOnceAndIdentical) {
  ensemble::ForecastService service;
  auto busy = service.submit(swe_request("vortex", 2, 9, 2));  // occupy the worker
  auto a = service.submit(swe_request("hill", 4, 5, 1));
  auto b = service.submit(swe_request("hill", 2, 5, 1));  // subset of a's roster
  service.drain();
  const ForecastResult ra = a.result.get();
  const ForecastResult rb = b.result.get();
  ASSERT_TRUE(ra.ok && rb.ok);
  EXPECT_EQ(ra.batch_members, 4);  // deduplicated roster, not 6
  EXPECT_EQ(rb.batch_members, 4);
  ASSERT_EQ(rb.members.size(), 2u);
  for (size_t m = 0; m < rb.members.size(); ++m) {
    EXPECT_EQ(rb.members[m].spec, ra.members[m].spec);
    EXPECT_EQ(rb.members[m].fields, ra.members[m].fields);
  }
  const ensemble::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced_requests, 2);
  (void)busy.result.get();
}

TEST(ForecastService, CancelPendingNotRunning) {
  ensemble::ForecastService service;
  auto busy = service.submit(swe_request("hill", 4, 1, 3));  // claims the worker
  auto doomed = service.submit(swe_request("vortex", 2, 2, 1));
  EXPECT_TRUE(service.cancel(doomed.id));
  EXPECT_FALSE(service.cancel(doomed.id));    // already gone
  EXPECT_FALSE(service.cancel(999999));       // never existed
  const ForecastResult r = doomed.result.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "cancelled");
  service.drain();
  const ForecastResult rb = busy.result.get();
  EXPECT_TRUE(rb.ok);  // a claimed request is never cancelled mid-run
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(ForecastService, InvalidRequestFailsFast) {
  ensemble::ForecastService service;
  ForecastRequest bad = swe_request("hill", 2, 1);
  bad.core = "mars";
  auto ticket = service.submit(bad);
  const ForecastResult r = ticket.result.get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown core"), std::string::npos);
  ForecastRequest bad_ic = swe_request("tsunami", 2, 1);
  const ForecastResult r2 = service.submit(bad_ic).result.get();
  EXPECT_FALSE(r2.ok);

  // Sizes beyond the fixed caps fail with a structured error naming the
  // offending key, before any size arithmetic runs.
  ForecastRequest dycore = swe_request("baro", 1, 1);
  dycore.core = "dycore";
  dycore.npz = 4;
  std::vector<std::pair<ForecastRequest, std::string>> oversized;
  for (int npx : {2000000000, kMaxRequestNpx + 1, 3}) {
    ForecastRequest q = swe_request("hill", 1, 1);
    q.npx = npx;
    oversized.emplace_back(q, "npx");
  }
  for (int npz : {kMaxRequestNpz + 1, 1}) {
    ForecastRequest q = dycore;
    q.npz = npz;
    oversized.emplace_back(q, "npz");
  }
  for (int members : {kMaxRequestMembers + 1, 0}) {
    oversized.emplace_back(swe_request("hill", members, 1), "members");
  }
  for (int steps : {kMaxRequestSteps + 1, 0}) {
    oversized.emplace_back(swe_request("hill", 1, 1, steps), "steps");
  }
  for (int ntracers : {kMaxRequestTracers + 1, 0}) {
    ForecastRequest q = swe_request("hill", 1, 1);
    q.ntracers = ntracers;
    oversized.emplace_back(q, "ntracers");
  }
  for (const auto& [q, key] : oversized) {
    const ForecastResult res = service.submit(q).result.get();
    EXPECT_FALSE(res.ok) << key;
    EXPECT_EQ(res.error.rfind(key + " must be in [", 0), 0u) << res.error;
  }
  EXPECT_EQ(service.stats().failed, 2 + static_cast<long>(oversized.size()));
  EXPECT_EQ(service.stats().batches, 0);
}

TEST(ForecastProtocol, ParseRequestRequiresWholeTokens) {
  ForecastRequest q;
  std::string error;
  ASSERT_TRUE(parse_request(parse_kv({"core=dycore", "ic=baro", "npx=24", "npz=8", "ntracers=2",
                                      "members=3", "seed=0x5EEDC0DE", "steps=2", "chaos=1",
                                      "backend=tape", "stray"}),
                            q, error))
      << error;
  EXPECT_EQ(q.core, "dycore");
  EXPECT_EQ(q.ic, "baro");
  EXPECT_EQ(q.npx, 24);
  EXPECT_EQ(q.npz, 8);
  EXPECT_EQ(q.ntracers, 2);
  EXPECT_EQ(q.members, 3);
  EXPECT_EQ(q.seed, 0x5EEDC0DEull);
  EXPECT_EQ(q.steps, 2);
  EXPECT_TRUE(q.chaos);
  EXPECT_EQ(q.backend, exec::ExecBackend::Tape);

  // Absent keys keep the request's values.
  ForecastRequest defaults;
  ASSERT_TRUE(parse_request(parse_kv({"seed=17"}), defaults, error)) << error;
  EXPECT_EQ(defaults.seed, 17u);
  EXPECT_EQ(defaults.npx, ForecastRequest{}.npx);

  for (const std::string token :
       {"npx=12abc", "npx=", "npx=99999999999", "npz=4.5", "members= 3", "steps=2x",
        "ntracers=0x2", "seed=12z", "seed=-1", "seed=", "seed=99999999999999999999", "chaos=yes"}) {
    ForecastRequest r;
    std::string err;
    EXPECT_FALSE(parse_request(parse_kv({token}), r, err)) << token;
    const std::string key = token.substr(0, token.find('='));
    EXPECT_EQ(err.rfind("malformed value for '" + key + "'", 0), 0u) << token << ": " << err;
  }
  ForecastRequest r;
  EXPECT_FALSE(parse_request(parse_kv({"backend=warp"}), r, error));
  EXPECT_EQ(error, "unknown backend 'warp'");
}

TEST(ForecastService, DycoreRequestServed) {
  ensemble::ForecastService service;
  ForecastRequest request;
  request.core = "dycore";
  request.ic = "baro";
  request.npx = 12;
  request.npz = 4;
  request.ntracers = 1;
  request.members = 2;
  request.seed = 3;
  request.steps = 1;
  const ForecastResult r = service.submit(request).result.get();
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.members.size(), 2u);
  // u, v, w, delp, pt, delz, q0
  EXPECT_EQ(r.members[0].fields.size(), 7u);
}

// --- Shape cache ------------------------------------------------------------

/// `result`'s members equal solo integrations of their specs bit for bit.
void expect_matches_solo(const ForecastService& service, const ForecastRequest& q,
                         const ForecastResult& result) {
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.members.size(), static_cast<size_t>(q.members));
  const swe::SweConfig cfg = standard_swe_config(q.npx, q.ntracers);
  exec::RunOptions run = service.options().run;
  run.backend = q.backend;
  for (const MemberForecast& member : result.members) {
    auto solo = solo_member<swe::SweModel>(cfg, service.options().num_ranks, run, q.ic,
                                           member.spec, service.options().amplitude);
    for (int s = 0; s < q.steps; ++s) solo->step();
    std::vector<verify::RankView> views;
    for (int r = 0; r < solo->num_ranks(); ++r) {
      const grid::RankInfo info = solo->partitioner().info(r);
      views.push_back(verify::RankView{&solo->state(r).catalog(), info.tile, info.i0, info.j0,
                                       info.ni, info.nj});
    }
    ASSERT_EQ(member.fields.size(), swe::SweState::prognostic_names(q.ntracers).size());
    for (const verify::GoldenField& field : member.fields) {
      EXPECT_EQ(field, verify::assemble_field(field.name, grid::kNumFaces,
                                              solo->partitioner().n(), views))
          << "member " << member.spec.index << " field " << field.name;
    }
  }
}

TEST(ForecastService, SecondBatchOfCachedShapeBuildsNothing) {
  ensemble::ForecastService service;
  ForecastRequest first = swe_request("hill", 2, 11, 2);
  first.backend = exec::ExecBackend::Jit;
  expect_matches_solo(service, first, service.submit(first).result.get());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.program_builds, 1);
  EXPECT_EQ(stats.ic_builds, 1);

  // Same shape and condition, other members: the batch copies the cached
  // program (no JIT module lookup at all) and the cached initial state.
  ForecastRequest second = first;
  second.seed = 12;
  second.members = 3;
  const long mem_hits = exec::jit::KernelCache::global().stats().mem_hits;
  const ForecastResult served = service.submit(second).result.get();
  EXPECT_EQ(exec::jit::KernelCache::global().stats().mem_hits, mem_hits);
  stats = service.stats();
  EXPECT_EQ(stats.program_builds, 1);
  EXPECT_EQ(stats.ic_builds, 1);
  expect_matches_solo(service, second, served);

  // Another condition of the shape reuses the program, evaluates its IC.
  ForecastRequest vortex = second;
  vortex.ic = "vortex";
  expect_matches_solo(service, vortex, service.submit(vortex).result.get());
  stats = service.stats();
  EXPECT_EQ(stats.program_builds, 1);
  EXPECT_EQ(stats.ic_builds, 2);
  EXPECT_EQ(stats.cache_evictions, 0);
}

TEST(ForecastService, ShapeCacheEvictsLeastRecentlyUsed) {
  ensemble::ForecastService service;
  // Distinct shapes by tracer count, small enough to run in milliseconds.
  const auto shape = [](int ntracers, uint64_t seed) {
    ForecastRequest q = swe_request("jet", 2, seed);
    q.npx = 8;
    q.ntracers = ntracers;
    return q;
  };
  const auto serve = [&service](const ForecastRequest& q) {
    expect_matches_solo(service, q, service.submit(q).result.get());
  };
  const int capacity = static_cast<int>(ForecastService::kShapeCacheCapacity);
  for (int t = 1; t <= capacity; ++t) serve(shape(t, 100 + t));
  EXPECT_EQ(service.stats().program_builds, capacity);
  EXPECT_EQ(service.stats().cache_evictions, 0);

  serve(shape(1, 200));  // a hit: shape 1 becomes the most recently used
  EXPECT_EQ(service.stats().program_builds, capacity);

  serve(shape(capacity + 1, 300));  // one shape too many: evicts shape 2
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.program_builds, capacity + 1);
  EXPECT_EQ(stats.cache_evictions, 1);

  serve(shape(1, 400));  // still cached
  EXPECT_EQ(service.stats().program_builds, capacity + 1);

  serve(shape(2, 500));  // evicted: a miss that rebuilds, still bitwise equal to solo
  stats = service.stats();
  EXPECT_EQ(stats.program_builds, capacity + 2);
  EXPECT_EQ(stats.ic_builds, capacity + 2);
  EXPECT_EQ(stats.cache_evictions, 2);
}

// --- Chaos: crashed rank mid-batch recovers and stays bitwise ---------------

TEST(ForecastServiceChaos, CrashedRankMidBatchStillBitwiseCorrect) {
  ensemble::ForecastService::Options options;
  options.runtime.faults.drop_rate = 0.05;
  options.runtime.faults.corrupt_rate = 0.05;
  options.runtime.faults.failure = comm::FaultPlan::Failure::Crash;
  options.runtime.faults.fail_rank = 1;
  options.runtime.faults.fail_step = 1;
  options.runtime.faults.seed = 0xC4A5ull;
  ensemble::ForecastService chaotic(options);
  ensemble::ForecastService clean;

  ForecastRequest request = swe_request("hill", 3, 0xFEEDull, 2);
  request.chaos = true;
  const ForecastResult faulted = chaotic.submit(request).result.get();
  ASSERT_TRUE(faulted.ok) << faulted.error;
  EXPECT_GE(faulted.report.restarts, 3);  // every member's rank 1 crashed once

  ForecastRequest same = request;
  same.chaos = false;
  const ForecastResult reference = clean.submit(same).result.get();
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_EQ(faulted.members.size(), reference.members.size());
  for (size_t m = 0; m < faulted.members.size(); ++m) {
    EXPECT_EQ(faulted.members[m].fields, reference.members[m].fields) << "member " << m;
  }
}

TEST(ForecastServiceChaos, CachedProgramCopiedPerRankStaysBitwiseCorrect) {
  ensemble::ForecastService::Options options;
  options.runtime.faults.drop_rate = 0.05;
  options.runtime.faults.failure = comm::FaultPlan::Failure::Crash;
  options.runtime.faults.fail_rank = 4;
  options.runtime.faults.fail_step = 1;
  options.runtime.faults.seed = 0xCAC4Eull;
  ensemble::ForecastService service(options);

  // A clean batch fills the shape cache; the chaos batch of the same shape
  // then runs every member's concurrent runtime on per-rank copies of the
  // cached program.
  const ForecastRequest clean = swe_request("vortex", 2, 0xBEEFull, 2);
  const ForecastResult reference = service.submit(clean).result.get();
  ASSERT_TRUE(reference.ok) << reference.error;
  ForecastRequest chaos = clean;
  chaos.chaos = true;
  const ForecastResult faulted = service.submit(chaos).result.get();
  ASSERT_TRUE(faulted.ok) << faulted.error;
  EXPECT_GE(faulted.report.restarts, 2);
  EXPECT_EQ(service.stats().program_builds, 1);
  EXPECT_EQ(service.stats().ic_builds, 1);
  ASSERT_EQ(faulted.members.size(), reference.members.size());
  for (size_t m = 0; m < faulted.members.size(); ++m) {
    EXPECT_EQ(faulted.members[m].fields, reference.members[m].fields) << "member " << m;
  }
}

}  // namespace
}  // namespace cyclone::ensemble
