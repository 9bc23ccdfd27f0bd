#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "core/dsl/builder.hpp"
#include "core/ir/lint.hpp"
#include "core/orch/orchestrate.hpp"
#include "core/tune/tuner.hpp"
#include "core/util/rng.hpp"
#include "core/verify/pipeline.hpp"
#include "core/verify/random_program.hpp"
#include "core/verify/verify.hpp"
#include "fv3/driver.hpp"

namespace cyclone::verify {
namespace {

/// Base seed of every fuzz loop in this file. Each test derives decorrelated
/// per-iteration seeds via Rng::mix, so a failure log line like "seed=..."
/// reproduces the exact program standalone.
constexpr uint64_t kFuzzBase = 0x5EEDFACEull;

TEST(UlpDistance, BasicProperties) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0.0);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0.0);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1.0);
  EXPECT_EQ(ulp_distance(2.0, std::nextafter(std::nextafter(2.0, 3.0), 3.0)), 2.0);
  // Symmetric.
  EXPECT_EQ(ulp_distance(1.0, 1.5), ulp_distance(1.5, 1.0));
  // Straddling zero still counts monotonically.
  EXPECT_GT(ulp_distance(-1.0, 1.0), ulp_distance(0.5, 1.0));
}

TEST(UlpDistance, NonFiniteHandling) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ulp_distance(nan, nan), 0.0);  // both invalid: agreeing garbage
  EXPECT_TRUE(std::isinf(ulp_distance(nan, 1.0)));
  EXPECT_TRUE(std::isinf(ulp_distance(1.0, nan)));
  EXPECT_EQ(ulp_distance(inf, inf), 0.0);
  EXPECT_TRUE(std::isinf(ulp_distance(inf, -inf)));
}

TEST(Verify, BitwiseCompareRejectsSignedZeroAndNanPayload) {
  // ulp_distance calls both pairs 0 ulps apart; bitwise they differ.
  const double nan_a = std::bit_cast<double>(0x7FF8000000000001ull);
  const double nan_b = std::bit_cast<double>(0x7FF8000000000002ull);
  for (const auto& [want, got] : {std::pair{0.0, -0.0}, std::pair{nan_a, nan_b}}) {
    FieldD a("f", 4, 3, 2, HaloSpec{1, 1});
    a.fill(1.0);
    FieldD b = a;
    a(2, -1, 1) = want;
    b(2, -1, 1) = got;
    const FieldDivergence d = compare_fields_bitwise("f", a, b);
    EXPECT_FALSE(d.ok) << want << " vs " << got;
    EXPECT_TRUE(d.bits_only) << want << " vs " << got;
    EXPECT_EQ(std::tuple(d.at_i, d.at_j, d.at_k), std::tuple(2, -1, 1));
    // The report names the kind of difference instead of "diverges by 0".
    EquivalenceReport report;
    report.equivalent = false;
    report.domains.push_back(DomainResult{exec::LaunchDomain{4, 3, 2}, 0, {d}, false, {}});
    const std::string text = report.first_failure();
    EXPECT_NE(text.find("field 'f' differs in bit pattern only (signed zero or NaN payload"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("at (2,-1,1)"), std::string::npos) << text;
    EXPECT_EQ(text.find("diverges by"), std::string::npos) << text;
    b(2, -1, 1) = want;
    EXPECT_TRUE(compare_fields_bitwise("f", a, b).ok);
  }
  // A numeric difference stays a divergence with its ulp count.
  FieldD a("f", 4, 3, 2, HaloSpec{1, 1});
  a.fill(1.0);
  FieldD b = a;
  b(0, 0, 0) = std::nextafter(1.0, 2.0);
  const FieldDivergence d = compare_fields_bitwise("f", a, b);
  EXPECT_FALSE(d.ok);
  EXPECT_FALSE(d.bits_only);
  EXPECT_EQ(d.max_ulps, 1.0);
}

TEST(Verify, DefaultDomainsCoverEdgePlacements) {
  const auto domains = default_domains();
  ASSERT_GE(domains.size(), 5u);
  bool has_interior_placement = false;  // region statements resolve empty
  bool has_degenerate = false;          // single-column
  bool has_offset_corner = false;       // high-corner tile placement
  for (const auto& d : domains) {
    if (d.gi0 > 0 && d.gj0 > 0 && d.gi0 + d.ni < d.global_ni()) has_interior_placement = true;
    if (d.ni == 1 && d.nj == 1) has_degenerate = true;
    if (d.gi0 > 0 && d.gni > 0 && d.gi0 + d.ni == d.gni) has_offset_corner = true;
  }
  EXPECT_TRUE(has_interior_placement);
  EXPECT_TRUE(has_degenerate);
  EXPECT_TRUE(has_offset_corner);
}

TEST(Verify, IdenticalProgramsAreBitEquivalent) {
  for (uint64_t i = 0; i < 5; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, i);
    const ir::Program p = random_program(seed);
    const EquivalenceReport report = check_equivalent(p, p);
    EXPECT_TRUE(report.equivalent) << "seed=" << seed << " " << report.first_failure();
    EXPECT_EQ(report.worst_ulps(), 0.0) << "seed=" << seed;
  }
}

TEST(Verify, RandomProgramIsDeterministicInSeed) {
  const uint64_t seed = Rng::mix(kFuzzBase, 77);
  EXPECT_EQ(ir::to_json(random_program(seed)), ir::to_json(random_program(seed)));
  EXPECT_NE(ir::to_json(random_program(seed)), ir::to_json(random_program(seed + 1)));
}

TEST(Verify, RandomProgramsLintClean) {
  for (uint64_t i = 0; i < 50; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, 1000 + i);
    const ir::Program p = random_program(seed);
    for (const auto& issue : ir::lint(p)) {
      EXPECT_NE(issue.severity, ir::LintIssue::Severity::Error)
          << "seed=" << seed << " " << issue.where << ": " << issue.message;
    }
  }
}

TEST(Verify, BackendsAgreeOnFuzzedPrograms) {
  for (uint64_t i = 0; i < 25; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, 2000 + i);
    const ir::Program p = random_program(seed);
    const EquivalenceReport report = check_parallel_agrees(p, exec::RunOptions{});
    EXPECT_TRUE(report.equivalent) << "seed=" << seed << " " << report.first_failure();
  }
}

// The checker must catch deliberately miscompiled programs (mutation
// testing). Not every syntactic mutation is semantically observable (e.g. an
// offset shift of a constant expression), so we require a high catch rate
// plus one pinned always-observable case rather than 100%.
TEST(Verify, MutationsAreCaught) {
  int attempted = 0;
  int caught = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, 3000 + i);
    const ir::Program original = random_program(seed);
    ir::Program mutant = original;
    const std::string defect = mutate_program(mutant, seed);
    if (defect.empty()) continue;
    ++attempted;
    if (!check_equivalent(original, mutant).equivalent) ++caught;
  }
  ASSERT_GE(attempted, 30);
  EXPECT_GE(caught * 10, attempted * 9)
      << "caught only " << caught << "/" << attempted << " injected defects";
}

TEST(Verify, ConstantBiasMutationIsAlwaysCaught) {
  // mutate_program's first case adds +1e-3 to an externally visible
  // statement: far above tolerance, observable on every sweep domain.
  const ir::Program original = random_program(Rng::mix(kFuzzBase, 4000));
  ir::Program mutant = original;
  const std::string defect = mutate_program(mutant, /*seed=*/0);  // case 0: bias
  ASSERT_FALSE(defect.empty());
  const EquivalenceReport report = check_equivalent(original, mutant);
  EXPECT_FALSE(report.equivalent) << defect;
  EXPECT_FALSE(report.first_failure().empty());
}

// The acceptance-criteria sweep: every transformation pass in the repo,
// translation-validated on >= 200 fuzzed programs with a fixed seed.
TEST(Verify, TranslationValidatesAllPassesOn200FuzzedPrograms) {
  const auto passes = known_passes();
  const exec::LaunchDomain pass_dom = default_domains().front();
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, 5000 + i);
    const ir::Program original = random_program(seed);
    for (const auto& pass : passes) {
      ir::Program transformed = original;
      const PassResult r = apply_pass(transformed, pass, pass_dom);
      ASSERT_TRUE(r.known) << pass;
      VerifyOptions vo;
      if (r.placement_dependent) vo.domains = {pass_dom};  // e.g. prune_regions
      const EquivalenceReport report = check_equivalent(original, transformed, vo);
      EXPECT_TRUE(report.equivalent)
          << "pass=" << pass << " seed=" << seed << " " << report.first_failure();
      if (!report.equivalent) return;  // one reproducer is enough to debug
    }
  }
}

TEST(Verify, ReportJsonIsWellFormed) {
  const ir::Program p = random_program(Rng::mix(kFuzzBase, 6000));
  ir::Program mutant = p;
  mutate_program(mutant, 1);
  const std::string json = report_to_json(check_equivalent(p, mutant));
  EXPECT_NE(json.find("\"equivalent\""), std::string::npos);
  EXPECT_NE(json.find("\"data_seed\""), std::string::npos);
  EXPECT_NE(json.find("\"domains\""), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

/// Two-node pointwise producer/consumer chain (SGF-fusible), mirroring the
/// tuner tests so the guard sees a transfer that genuinely applies.
ir::Program pointwise_chain() {
  ir::Program p("chain");
  dsl::StencilBuilder b1("scale2");
  auto in = b1.field("in");
  auto mid = b1.field("mid");
  b1.parallel().full().assign(mid, dsl::E(in) * 2.0);
  dsl::StencilBuilder b2("add1");
  auto mid2 = b2.field("mid");
  auto out = b2.field("out");
  b2.parallel().full().assign(out, dsl::E(mid2) + 1.0);
  p.append_state(ir::State{"s0",
                           {ir::SNode::make_stencil("a", b1.build(), {}, sched::tuned_horizontal()),
                            ir::SNode::make_stencil("b", b2.build(), {},
                                                    sched::tuned_horizontal())}});
  p.set_field_meta("mid", ir::FieldMeta{ir::FieldKind::Center3D, true});
  return p;
}

tune::TuningOptions guard_opts() {
  tune::TuningOptions o;
  o.dom = exec::LaunchDomain{24, 20, 8};
  o.verify_transfers = true;
  return o;
}

TEST(TransferGuard, AcceptsEquivalentFusions) {
  const auto options = guard_opts();
  const auto patterns = tune::collect_patterns(
      tune::tune_cutouts(pointwise_chain(), options, tune::TransformKind::SubgraphFusion));
  ASSERT_FALSE(patterns.empty());
  ir::Program target = pointwise_chain();
  const tune::TransferReport report = tune::transfer(target, patterns, options);
  EXPECT_EQ(report.applied, 1);
  EXPECT_EQ(report.rejected_by_verify, 0);
  EXPECT_EQ(target.states()[0].nodes.size(), 1u);  // fusion accepted
}

TEST(TransferGuard, RejectsWhenCutoutFailsEquivalence) {
  // An impossible tolerance makes every candidate fail its differential
  // check, which must veto application even though the model says "faster".
  auto options = guard_opts();
  options.verify.max_ulps = -1.0;
  options.verify.abs_floor = -1.0;
  const auto patterns = tune::collect_patterns(
      tune::tune_cutouts(pointwise_chain(), options, tune::TransformKind::SubgraphFusion));
  ASSERT_FALSE(patterns.empty());
  ir::Program target = pointwise_chain();
  const tune::TransferReport report = tune::transfer(target, patterns, options);
  EXPECT_EQ(report.applied, 0);
  EXPECT_EQ(report.rejected_by_verify, 1);
  EXPECT_EQ(target.states()[0].nodes.size(), 2u);  // untouched
}

TEST(TransferGuard, GuardedFuzzTransfersStayEquivalent) {
  // End-to-end: guarded transfer tuning over fuzzed programs never changes
  // semantics, and the guard itself never fires on the legal fuser.
  auto options = guard_opts();
  for (uint64_t i = 0; i < 10; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, 7000 + i);
    const ir::Program original = random_program(seed);
    for (const auto kind : {tune::TransformKind::SubgraphFusion, tune::TransformKind::OtfFusion}) {
      const auto patterns =
          tune::collect_patterns(tune::tune_cutouts(original, options, kind));
      if (patterns.empty()) continue;
      ir::Program target = original;
      const tune::TransferReport report =
          tune::transfer_until_converged(target, patterns, options);
      EXPECT_EQ(report.rejected_by_verify, 0) << "seed=" << seed;
      const EquivalenceReport eq = check_equivalent(original, target);
      EXPECT_TRUE(eq.equivalent) << "seed=" << seed << " " << eq.first_failure();
    }
  }
}

fv3::ModelState small_state() {
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.ntracers = 2;
  grid::Partitioner part(cfg.npx, 1, 1);
  return fv3::ModelState(cfg, part, 0);
}

TEST(OrchestrateGuard, VerifiesOrchestrationOnDycore) {
  const fv3::ModelState state = small_state();
  ir::Program prog = fv3::build_dycore_program(state);
  orch::OrchestrateOptions options;
  options.verify_equivalence = true;
  options.verify.domains = {state.domain()};  // fields sized for this tile
  const orch::OrchestrationReport report = orch::orchestrate(prog, options);
  EXPECT_TRUE(report.verified) << report.verify_failure;
  EXPECT_GT(report.stencils_processed, 20);
  // Orchestration was kept: bindings are gone from every node.
  for (const auto& st : prog.states()) {
    for (const auto& node : st.nodes) {
      if (node.kind == ir::SNode::Kind::Stencil) {
        EXPECT_TRUE(node.args.bind.empty());
      }
    }
  }
}

TEST(OrchestrateGuard, RollsBackWhenCheckFails) {
  const fv3::ModelState state = small_state();
  ir::Program prog = fv3::build_dycore_program(state);
  const std::string before = ir::to_json(prog);
  orch::OrchestrateOptions options;
  options.verify_equivalence = true;
  options.verify.domains = {state.domain()};
  options.verify.max_ulps = -1.0;  // impossible tolerance: force rejection
  options.verify.abs_floor = -1.0;
  const orch::OrchestrationReport report = orch::orchestrate(prog, options);
  EXPECT_FALSE(report.verified);
  EXPECT_FALSE(report.verify_failure.empty());
  EXPECT_EQ(ir::to_json(prog), before);  // rolled back bit-for-bit
}

}  // namespace
}  // namespace cyclone::verify
