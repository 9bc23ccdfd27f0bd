#include <gtest/gtest.h>

#include "core/dsl/builder.hpp"
#include "core/ir/lint.hpp"
#include "fv3/driver.hpp"
#include "fv3/init/baroclinic.hpp"

namespace cyclone::ir {
namespace {

using dsl::E;
using dsl::StencilBuilder;

SNode unbound_param_node() {
  StencilBuilder b("scaled");
  auto q = b.field("q");
  auto dt = b.param("dt");
  b.parallel().full().assign(q, E(q) * E(dt));
  return SNode::make_stencil("scaled", b.build());  // dt not bound
}

TEST(Lint, CleanDycoreProgramHasNoErrors) {
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.ntracers = 2;
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  const Program prog = fv3::build_dycore_program(state);
  for (const auto& issue : lint(prog)) {
    EXPECT_NE(issue.severity, LintIssue::Severity::Error)
        << issue.where << ": " << issue.message;
  }
}

TEST(Lint, DetectsUnboundParameter) {
  Program p;
  p.append_state(State{"s", {unbound_param_node()}});
  const auto issues = lint(p);
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& issue : issues) {
    found = found || (issue.severity == LintIssue::Severity::Error &&
                      issue.message.find("dt") != std::string::npos);
  }
  EXPECT_TRUE(found) << format_issues(issues);
}

TEST(Lint, DetectsInvalidSchedule) {
  StencilBuilder b("vert");
  auto a = b.field("a");
  b.forward().interval(dsl::inner_levels(1, 0)).assign(a, a.at_k(-1) + 1.0);
  SNode node = SNode::make_stencil("vert", b.build());
  node.schedule.k_as_map = true;  // illegal for a vertical solver
  Program p;
  p.append_state(State{"s", {node}});
  const auto issues = lint(p);
  bool found = false;
  for (const auto& issue : issues) {
    found = found || issue.severity == LintIssue::Severity::Error;
  }
  EXPECT_TRUE(found) << format_issues(issues);
}

TEST(Lint, WarnsOnEmptyStateAndOrphanHalo) {
  Program p;
  p.append_state(State{"empty", {}});
  p.append_state(State{"hx", {SNode::make_halo_exchange("hx", {"ghost_field"}, 3)}});
  const auto issues = lint(p);
  int warnings = 0;
  for (const auto& issue : issues) {
    warnings += issue.severity == LintIssue::Severity::Warning;
  }
  EXPECT_GE(warnings, 2) << format_issues(issues);
}

TEST(Lint, OddVectorExchangeIsError) {
  Program p;
  p.append_state(State{"hx", {SNode::make_halo_exchange("hx", {"u"}, 3, true)}});
  const auto issues = lint(p);
  bool found = false;
  for (const auto& issue : issues) found = found || issue.severity == LintIssue::Severity::Error;
  EXPECT_TRUE(found);
}

TEST(Json, SerializesStructure) {
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.ntracers = 1;
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  const Program prog = fv3::build_dycore_program(state);
  const std::string json = to_json(prog);

  EXPECT_NE(json.find("\"name\":\"fv3_dycore\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"stencil\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"halo_exchange\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"loop\""), std::string::npos);
  EXPECT_NE(json.find("riem_solver_c.forward"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Json, RoundTripsEveryScheduleAndCacheKind) {
  // One program holding a node for every feasible schedule of both
  // iteration-order families plus every CacheKind and RegionStrategy value:
  // lint must accept all of them and to_json must render each distinctly.
  Program p("all_schedules");
  State state;
  state.name = "s0";
  int id = 0;

  auto horizontal_node = [&](const sched::Schedule& s) {
    StencilBuilder b("h" + std::to_string(id));
    auto q = b.field("q");
    b.parallel()
        .full()
        .assign(q, E(q) * 2.0)
        .assign_in(dsl::region_i_start(1), q, 0.0);  // exercises region_strategy
    SNode node = SNode::make_stencil("h" + std::to_string(id++), b.build());
    node.schedule = s;
    return node;
  };
  auto vertical_node = [&](const sched::Schedule& s) {
    StencilBuilder b("v" + std::to_string(id));
    auto a = b.field("a");
    b.forward().interval(dsl::inner_levels(1, 0)).assign(a, a.at_k(-1) + E(a));
    SNode node = SNode::make_stencil("v" + std::to_string(id++), b.build());
    node.schedule = s;
    return node;
  };

  std::vector<sched::Schedule> all;
  for (auto s : sched::enumerate_valid(dsl::IterOrder::Parallel)) {
    s.region_strategy = (id % 2) ? sched::RegionStrategy::SeparateKernels
                                 : sched::RegionStrategy::Predicated;
    state.nodes.push_back(horizontal_node(s));
    all.push_back(s);
  }
  for (auto s : sched::enumerate_valid(dsl::IterOrder::Forward)) {
    for (const auto cache : {sched::CacheKind::None, sched::CacheKind::Registers,
                             sched::CacheKind::SharedMemory}) {
      if (s.k_as_map && cache != sched::CacheKind::None) continue;  // infeasible
      sched::Schedule v = s;
      v.vertical_cache = cache;
      if (!sched::is_valid(v, dsl::IterOrder::Forward)) continue;
      state.nodes.push_back(vertical_node(v));
      all.push_back(v);
    }
  }
  ASSERT_GT(all.size(), 4u);
  p.append_state(std::move(state));

  for (const auto& issue : lint(p)) {
    EXPECT_NE(issue.severity, LintIssue::Severity::Error)
        << issue.where << ": " << issue.message;
  }

  const std::string json = to_json(p);
  for (const auto& s : all) {
    EXPECT_NE(json.find(s.describe()), std::string::npos)
        << "schedule missing from JSON: " << s.describe();
  }
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Backend, ReferenceMatchesCompiledOnDycoreState) {
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 6;
  cfg.k_split = 1;
  cfg.n_split = 1;
  cfg.ntracers = 1;
  cfg.dt = 200.0;

  auto run = [&](exec::ExecBackend backend) {
    fv3::DistributedModel model(cfg, 6);
    fv3::init_baroclinic(model);
    exec::RunOptions options;
    options.backend = backend;
    model.set_run_options(options);
    model.step();
    return model.diagnostics();
  };
  const auto compiled = run(exec::ExecBackend::OpenMP);
  const auto reference = run(exec::ExecBackend::Interpreter);
  EXPECT_EQ(compiled.total_mass, reference.total_mass);
  EXPECT_EQ(compiled.max_wind, reference.max_wind);
  EXPECT_EQ(compiled.mean_pt, reference.mean_pt);
}

}  // namespace
}  // namespace cyclone::ir
