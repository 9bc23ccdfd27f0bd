// Guided search (core/tune/search.*) and online re-tuning (core/tune/online.*)
// acceptance tests: guided must reach the exhaustive oracle's config from a
// fraction of the evaluations, a warm DB must replay it with zero candidate
// evaluations and zero timed measurements, and online hot-swapped runs must
// stay bitwise identical to never-tuned runs — on a single process and
// through the thread-per-rank concurrent runtime.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "comm/verify_distributed.hpp"
#include "core/dsl/builder.hpp"
#include "core/tune/online.hpp"
#include "core/tune/search.hpp"
#include "core/tune/tunedb.hpp"
#include "core/util/strings.hpp"
#include "core/verify/random_program.hpp"
#include "core/verify/verify.hpp"
#include "fv3/dyn_core.hpp"
#include "fv3/state.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::tune {
namespace {

namespace fs = std::filesystem;
using dsl::E;
using dsl::StencilBuilder;

std::string fresh_db(const std::string& name) {
  fs::create_directories(CYCLONE_TEST_TMPDIR);
  const std::string path = std::string(CYCLONE_TEST_TMPDIR) + "/tune-search-" + name + ".db";
  fs::remove(path);
  return path;
}

/// Three chained pointwise stencils: two fusions available, none of the
/// intermediates marked transient, so every field stays observable and a
/// fused run must write them all bitwise identically.
ir::Program chain_program() {
  ir::Program p("chain3");
  auto node = [](const std::string& in, const std::string& out, const std::string& fname) {
    StencilBuilder b(fname);
    auto i = b.field("in");
    auto o = b.field("out");
    b.parallel().full().assign(o, E(i) * 1.000244140625 + 0.03125);
    exec::StencilArgs args;
    args.bind["in"] = in;
    args.bind["out"] = out;
    // Default (untuned) schedules: the online tuner's schedule stage has a
    // real improvement to find and stage.
    return ir::SNode::make_stencil(fname, b.build(), args);
  };
  p.append_state(ir::State{
      "s0", {node("a", "b", "scale_a"), node("b", "c", "scale_b"), node("c", "d", "scale_c")}});
  return p;
}

/// Diffusion with the laplacian as its own node: the compute state holds a
/// fusible producer/consumer pair, so the online tuner has a real fusion to
/// hot-swap mid-run. `relax` consumes `lap` at zero offset — the only shape
/// where a *visible* (non-transient) intermediate is legally fusible: with
/// an offset read the producer would need an extended apply domain, which
/// fusion must (and does) refuse for surviving outputs. `lap` stays a plain
/// catalog field and must keep its bitwise contents through any rewrite.
ir::Program two_node_diffusion() {
  ir::Program p("diffusion2");
  p.append_state(ir::State{"hx", {ir::SNode::make_halo_exchange("hx.q", {"q"}, 3)}});
  StencilBuilder b1("lap5");
  {
    auto q = b1.field("q");
    auto lap = b1.field("lap");
    b1.parallel().full().assign(lap, q(1, 0) + q(-1, 0) + q(0, 1) + q(0, -1) - E(q) * 4.0);
  }
  StencilBuilder b2("relax");
  {
    auto q = b2.field("q");
    auto lap = b2.field("lap");
    auto out = b2.field("out");
    b2.parallel().full().assign(out, E(q) + E(lap) * 0.1);
  }
  p.append_state(ir::State{"compute",
                           {ir::SNode::make_stencil("lap5", b1.build()),
                            ir::SNode::make_stencil("relax", b2.build())}});
  return p;
}

TuningOptions dycore_opts(const fv3::ModelState& state) {
  TuningOptions o;
  o.dom = state.domain();
  o.machine = perf::p100();
  return o;
}

// ---- guided vs exhaustive --------------------------------------------------

TEST(GuidedSearch, MatchesExhaustiveWithinTwoPercentOnSeededSet) {
  // The acceptance criterion: on a seeded program set, guided reaches a
  // config within 2% of exhaustive-best modeled time while evaluating at
  // most 25% as many candidates in aggregate.
  fv3::FvConfig cfg;
  cfg.npx = 24;
  cfg.npz = 8;
  cfg.ntracers = 2;
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);

  struct Subject {
    std::string name;
    ir::Program program;
    TuningOptions options;
  };
  std::vector<Subject> subjects;
  subjects.push_back(
      {"dycore", fv3::build_dycore_program(state, fv3::DycoreSchedules::defaults()),
       dycore_opts(state)});
  for (const uint64_t seed : {1ull, 2ull, 3ull, 7ull, 9ull}) {
    TuningOptions o;
    o.dom = exec::LaunchDomain{48, 48, 8};
    subjects.push_back(
        {str::numbered("fuzz:", static_cast<long>(seed)), verify::random_program(seed), o});
  }
  {
    // A motif-heavy subject: the same fusible producer/consumer chain in
    // every one of 24 states — the structural shape of a sub-stepped model
    // (one module state per substep) and the showcase of label-based
    // transfer: evaluate the motif once, reuse it 23 times.
    ir::Program motifs("motifs");
    for (int s = 0; s < 24; ++s) {
      ir::Program one = chain_program();
      motifs.append_state(
          ir::State{str::numbered("s", s), one.states()[0].nodes});
    }
    motifs.set_field_meta("b", ir::FieldMeta{ir::FieldKind::Center3D, true});
    motifs.set_field_meta("c", ir::FieldMeta{ir::FieldKind::Center3D, true});
    TuningOptions o;
    o.dom = exec::LaunchDomain{48, 48, 8};
    subjects.push_back({"motifs", std::move(motifs), o});
  }

  long evaluated_guided = 0;
  long evaluated_exhaustive = 0;
  for (const auto& subject : subjects) {
    ir::Program exh = subject.program;
    TuningOptions oe = subject.options;
    oe.exhaustive = true;
    const TuneReport re = tune_program(exh, oe);

    ir::Program gui = subject.program;
    TuningOptions og = subject.options;
    og.exhaustive = false;
    const TuneReport rg = tune_program(gui, og);

    EXPECT_LE(rg.modeled_after, re.modeled_after * 1.02)
        << subject.name << ": guided landed " << rg.modeled_after << " vs oracle "
        << re.modeled_after;
    evaluated_guided += rg.search.evaluated;
    evaluated_exhaustive += re.search.evaluated;
  }
  ASSERT_GT(evaluated_exhaustive, 0);
  EXPECT_LE(4 * evaluated_guided, evaluated_exhaustive)
      << "guided evaluated " << evaluated_guided << " of " << evaluated_exhaustive;
}

TEST(GuidedSearch, ExhaustiveOracleStatsCountEveryCandidate) {
  // In oracle mode nothing is pruned and nothing early-exits; the stats must
  // say so, or the guided-vs-exhaustive comparison above compares nothing.
  ir::Program p = chain_program();
  TuningOptions o;
  o.dom = exec::LaunchDomain{64, 64, 8};
  o.exhaustive = true;
  SearchStats stats;
  guided_tune_cutouts(p, o, TransformKind::SubgraphFusion, stats);
  EXPECT_GT(stats.candidates, 0);
  EXPECT_EQ(stats.candidates, stats.evaluated);
  EXPECT_EQ(stats.pruned_saturated, 0);
  EXPECT_EQ(stats.pruned_low_gain, 0);
  EXPECT_EQ(stats.early_exits, 0);
}

// ---- warm DB ---------------------------------------------------------------

TEST(WarmDb, ReplaysBestConfigWithZeroEvaluationsAndZeroTimed) {
  fv3::FvConfig cfg;
  cfg.npx = 24;
  cfg.npz = 8;
  cfg.ntracers = 2;
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  const ir::Program base =
      fv3::build_dycore_program(state, fv3::DycoreSchedules::defaults());
  const std::string path = fresh_db("warm");

  TuneReport cold;
  {
    TuneDb db(path);
    ir::Program p = base;
    cold = tune_program(p, dycore_opts(state), &db);
  }
  EXPECT_FALSE(cold.warm);
  EXPECT_GT(cold.search.evaluated, 0);
  EXPECT_GT(cold.schedules_changed + cold.transfer.applied, 0);

  TuneDb db(path);
  ir::Program p = base;
  // Even with wall-clock measurement requested, a warm replay must not time
  // anything — the zero-measurement contract of the acceptance criteria.
  TuningOptions warm_opts = dycore_opts(state);
  warm_opts.measure_execution = true;
  const TuneReport warm = tune_program(p, warm_opts, &db);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.search.evaluated, 0);
  EXPECT_EQ(warm.search.timed, 0);
  EXPECT_GT(warm.search.db_hits, 0);
  // And it lands on the cold run's config, not a degraded one.
  EXPECT_LE(warm.modeled_after, cold.modeled_after * 1.0001)
      << "warm replay lost the tuned config";
}

TEST(WarmDb, MarkerIsContextSpecific) {
  // A DB warmed on one (machine, backend, threads) context must not claim
  // warmth for another: the other context re-tunes.
  const std::string path = fresh_db("ctx");
  ir::Program p = chain_program();
  TuningOptions o;
  o.dom = exec::LaunchDomain{32, 32, 4};
  {
    TuneDb db(path);
    ir::Program cold = p;
    tune_program(cold, o, &db);
  }
  TuneDb db(path);
  TuningOptions other = o;
  other.run.num_threads = 7;  // different context key
  ir::Program again = p;
  const TuneReport r = tune_program(again, other, &db);
  EXPECT_FALSE(r.warm);
}

// ---- model ordering regressions -------------------------------------------

TEST(PerfModel, ModeledOrderingsPinned) {
  // Search pruning assumes these orderings; if the perf model changes shape,
  // fail here by name instead of silently inverting the search.
  TuningOptions o;
  o.dom = exec::LaunchDomain{64, 64, 16};
  o.machine = perf::p100();

  // 1. Fusing a pointwise chain reduces modeled state time (fewer launches,
  //    shared operand traffic). Mark the intermediates transient so fusion
  //    has dying traffic to eliminate — this test pins the model, not the
  //    bitwise contract.
  auto transient_chain = [] {
    ir::Program p = chain_program();
    for (auto& st : p.states()) {
      for (auto& n : st.nodes) n.schedule = sched::tuned_horizontal();
    }
    p.set_field_meta("b", ir::FieldMeta{ir::FieldKind::Center3D, true});
    p.set_field_meta("c", ir::FieldMeta{ir::FieldKind::Center3D, true});
    return p;
  };
  ir::Program fused = transient_chain();
  const ir::Program unfused = transient_chain();
  const double t_unfused = model_state(unfused, unfused.states()[0], o);
  TuningOptions oracle = o;
  oracle.exhaustive = true;
  const auto pats =
      collect_patterns(tune_cutouts(unfused, oracle, TransformKind::SubgraphFusion));
  ASSERT_FALSE(pats.empty());
  transfer_until_converged(fused, pats, o);
  ASSERT_LT(fused.states()[0].nodes.size(), unfused.states()[0].nodes.size());
  const double t_fused = model_state(fused, fused.states()[0], o);
  EXPECT_LT(t_fused, t_unfused);

  // 2. More cells, more modeled time (the model is traffic-monotone).
  TuningOptions big = o;
  big.dom = exec::LaunchDomain{128, 128, 16};
  EXPECT_GT(model_state(unfused, unfused.states()[0], big), t_unfused);

  // 3. model_whole_program is the invocation-weighted sum of its states.
  ir::Program two = two_node_diffusion();
  const double s0 = model_state(two, two.states()[0], o);
  const double s1 = model_state(two, two.states()[1], o);
  EXPECT_NEAR(model_whole_program(two, o), s0 + s1, 1e-12);
}

// ---- online re-tuning ------------------------------------------------------

TEST(OnlineTuner, HotSwapIsBitwiseIdenticalSingleRank) {
  // Rank count 1 of the acceptance matrix: a solo process advancing the
  // program while the tuner hot-swaps between steps must stay bitwise
  // identical to a never-tuned run, on every backend.
  const exec::LaunchDomain dom{24, 24, 6};
  for (const exec::ExecBackend be :
       {exec::ExecBackend::Interpreter, exec::ExecBackend::OpenMP, exec::ExecBackend::Jit}) {
    exec::RunOptions run;
    run.backend = be;
    run.num_threads = 2;

    ir::Program ref = chain_program();
    ref.set_run_options(run);
    ir::Program subject = chain_program();
    subject.set_run_options(run);
    FieldCatalog cref = verify::make_test_catalog(ref, ref, dom, 0x0A11CE);
    FieldCatalog csub = verify::make_test_catalog(subject, subject, dom, 0x0A11CE);

    OnlineOptions oo;
    oo.tuning.dom = dom;
    oo.tuning.run = run;
    OnlineTuner tuner(subject, oo);
    for (int step = 0; step < 4; ++step) {
      tuner.tune_slice();
      tuner.hot_swap(subject);
      tuner.commit();
      ref.execute(cref, dom);
      subject.execute(csub, dom);
      for (const auto& name : cref.names()) {
        const auto d = verify::compare_fields_bitwise(name, cref.at(name), csub.at(name));
        EXPECT_TRUE(d.ok) << exec::backend_name(be) << " step " << step << " field " << name
                          << ": " << d.max_ulps << " ulps";
      }
    }
    // Not vacuous: the tuner must actually have rewritten something.
    EXPECT_GT(tuner.stats().staged, 0) << exec::backend_name(be);
    EXPECT_GT(tuner.stats().fusions_applied + tuner.stats().schedules_changed, 0);
  }
}

TEST(OnlineTuner, VerifySwapsGuardAcceptsLegalRewrites) {
  ir::Program subject = chain_program();
  OnlineOptions oo;
  oo.tuning.dom = exec::LaunchDomain{16, 16, 4};
  oo.verify_swaps = true;
  OnlineTuner tuner(subject, oo);
  while (!tuner.done()) tuner.tune_slice();
  EXPECT_GT(tuner.stats().verified, 0);
  EXPECT_EQ(tuner.stats().rejected, 0);
}

TEST(OnlineTuner, ConcurrentRuntimeRetunesAndSwapsBetweenSteps) {
  // Direct runtime check: with run.tune_mode = Online the runtime grows a
  // tuner, swaps improved states into every rank copy at step boundaries,
  // and records its progress in the stats.
  const ir::Program p = two_node_diffusion();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  const comm::HaloUpdater halo(part, 3);
  const auto doms = comm::launch_domains(part, 3);
  std::vector<FieldCatalog> cats = verify::seeded_catalogs(p, doms, 0xABC);

  comm::RuntimeOptions opt;
  opt.run.tune_mode = exec::TuneMode::Online;
  comm::ConcurrentRuntime rt(p, halo, comm::bind_ranks(cats, doms), opt);
  EXPECT_EQ(rt.online_tuner(), nullptr);  // lazy: created on the first step
  rt.step();
  rt.step();
  rt.step();
  ASSERT_NE(rt.online_tuner(), nullptr);
  const OnlineStats& stats = rt.online_tuner()->stats();
  EXPECT_GT(stats.slices, 0);
  EXPECT_GT(stats.staged, 0);
  // A real fusion (not just a schedule flip) was hot-swapped mid-run.
  EXPECT_GT(stats.fusions_applied, 0);
  // Every staged set was committed after swapping into the rank copies.
  EXPECT_EQ(stats.swapped, stats.staged);
  EXPECT_GT(stats.swapped, 0);
}

TEST(OnlineTuner, DistributedRetunedRunsMatchLockstepBitwise) {
  // The acceptance matrix: online re-tuned concurrent runs vs the untuned
  // lockstep reference, 0 ULP, across backends {interp, openmp, jit} and
  // rank counts {6, 24} (rank count 1 is covered by the solo test above).
  const ir::Program base = two_node_diffusion();
  for (const int nranks : {6, 24}) {
    const grid::Partitioner part = grid::Partitioner::for_ranks(12, nranks);
    for (const exec::ExecBackend be :
         {exec::ExecBackend::Interpreter, exec::ExecBackend::OpenMP, exec::ExecBackend::Jit}) {
      ir::Program p = base;
      exec::RunOptions run = p.run_options();
      run.backend = be;
      run.tune_mode = exec::TuneMode::Online;
      p.set_run_options(run);

      verify::DistributedVerifyOptions opt;
      opt.repetitions = 2;
      opt.thread_budgets = {2};
      opt.steps = 3;  // swaps land between steps, mid-run
      const verify::EquivalenceReport report =
          verify::check_distributed_agrees(p, part, 3, 3, opt);
      EXPECT_TRUE(report.equivalent)
          << nranks << " ranks on " << exec::backend_name(be) << ": "
          << report.first_failure();
    }
  }
}

TEST(OnlineTuner, RecordsIntoDbWhileRunning) {
  const std::string path = fresh_db("online");
  ir::Program subject = two_node_diffusion();
  OnlineOptions oo;
  oo.tuning.dom = exec::LaunchDomain{12, 12, 3};
  oo.db_path = path;
  {
    OnlineTuner tuner(subject, oo);
    while (!tuner.done()) {
      tuner.tune_slice();
      tuner.hot_swap(subject);
      tuner.commit();
    }
  }
  // The next process starts warm: schedules and the completion marker are
  // on disk under this tuning context.
  TuneDb db(path);
  EXPECT_GT(db.stats().loaded_records, 0);
  EXPECT_TRUE(db.has_program(TuneDb::context_of(oo.tuning),
                             TuneDb::program_signature(two_node_diffusion())));
}

}  // namespace
}  // namespace cyclone::tune
