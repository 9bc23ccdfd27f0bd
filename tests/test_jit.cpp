// JIT codegen backend: kernel-cache behavior (miss/hit/eviction, on-disk
// reuse across process "restarts", poisoned-entry recovery), tape-engine
// fallback paths, and translation validation of the generated native
// kernels against the reference interpreter at 0 ULP — including the
// 200-program random sweep across thread counts and the full baroclinic
// dycore step — plus the one-parallel-region-per-kernel structure: barrier
// hazard stencils across teams, bands and k maps, and the generated dycore
// module's region and barrier counts.
//
// Naming note: suite/test names deliberately avoid the substrings the
// sanitizer CI jobs select on (they would dlopen libgomp-linked kernels
// into the clang/libomp TSan build).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/dsl/builder.hpp"
#include "core/exec/jit/abi.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/exec/jit/codegen.hpp"
#include "core/exec/jit/compiler.hpp"
#include "core/exec/jit/jit.hpp"
#include "core/util/rng.hpp"
#include "core/verify/random_program.hpp"
#include "core/verify/verify.hpp"
#include "fv3/dyn_core.hpp"
#include "fv3/state.hpp"
#include "grid/partitioner.hpp"

namespace cyclone {
namespace {

namespace fs = std::filesystem;
using exec::jit::CacheStats;
using exec::jit::KernelCache;

// Scratch paths live under the build tree (CYCLONE_TEST_TMPDIR), never the
// cwd: a test run from the source checkout must not litter it.
std::string test_tmp(const std::string& name) {
  fs::create_directories(CYCLONE_TEST_TMPDIR);
  return std::string(CYCLONE_TEST_TMPDIR) + "/" + name;
}

// Keep the process-global kernel cache (used by Program's Jit backend) in a
// build-tree directory instead of the user's ~/.cache. Static init runs
// before the global cache is first constructed.
const bool kCacheEnvReady = [] {
  if (!std::getenv("CYCLONE_JIT_CACHE_DIR")) {
    ::setenv("CYCLONE_JIT_CACHE_DIR", test_tmp("jit-global-cache").c_str(), 1);
  }
  return true;
}();

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_tmp("jit-test-" + name);
  fs::remove_all(dir);
  return dir;
}

bool have_compiler() { return !exec::jit::host_compiler().empty(); }

constexpr const char* kProbeSrcA = "extern \"C\" int cy_probe(void) { return 7; }\n";
constexpr const char* kProbeSrcB = "extern \"C\" int cy_probe(void) { return 8; }\n";
constexpr const char* kProbeSrcC = "extern \"C\" int cy_probe(void) { return 9; }\n";

int call_probe(const std::shared_ptr<exec::jit::LoadedModule>& mod) {
  using Fn = int (*)();
  auto* fn = reinterpret_cast<Fn>(mod->symbol("cy_probe"));
  return fn ? fn() : -1;
}

// ------------------------------------------------------------- cache -----

TEST(JitCache, MissCompilesHitServesFromMemoryAndLruEvicts) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  KernelCache cache(fresh_dir("lru"), /*max_memory_entries=*/2);
  std::string err;

  auto a = cache.get(KernelCache::make_key("a", kProbeSrcA), kProbeSrcA, err);
  ASSERT_TRUE(a) << err;
  EXPECT_EQ(call_probe(a), 7);
  auto a2 = cache.get(KernelCache::make_key("a", kProbeSrcA), kProbeSrcA, err);
  EXPECT_EQ(a.get(), a2.get());
  CacheStats st = cache.stats();
  EXPECT_EQ(st.compiles, 1);
  EXPECT_EQ(st.mem_hits, 1);
  EXPECT_EQ(st.evictions, 0);

  // Two more distinct entries overflow the 2-entry memory level.
  ASSERT_TRUE(cache.get(KernelCache::make_key("b", kProbeSrcB), kProbeSrcB, err)) << err;
  ASSERT_TRUE(cache.get(KernelCache::make_key("c", kProbeSrcC), kProbeSrcC, err)) << err;
  st = cache.stats();
  EXPECT_EQ(st.compiles, 3);
  EXPECT_EQ(st.evictions, 1);
  // The evicted entry ('a', least recently used) reloads from disk, not a
  // recompile; the handle obtained before eviction stays valid throughout.
  auto a3 = cache.get(KernelCache::make_key("a", kProbeSrcA), kProbeSrcA, err);
  ASSERT_TRUE(a3) << err;
  EXPECT_EQ(call_probe(a3), 7);
  EXPECT_EQ(call_probe(a), 7);
  st = cache.stats();
  EXPECT_EQ(st.compiles, 3);
  EXPECT_EQ(st.disk_hits, 1);
}

TEST(JitCache, DiskEntriesSurviveRestart) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_dir("restart");
  const std::string key = KernelCache::make_key("restart", kProbeSrcA);
  std::string err;
  {
    KernelCache first(dir);
    ASSERT_TRUE(first.get(key, kProbeSrcA, err)) << err;
    EXPECT_EQ(first.stats().compiles, 1);
  }
  // A fresh cache instance over the same directory models a new process:
  // the module loads from disk with zero compiler invocations.
  KernelCache second(dir);
  auto mod = second.get(key, kProbeSrcA, err);
  ASSERT_TRUE(mod) << err;
  EXPECT_EQ(call_probe(mod), 7);
  const CacheStats st = second.stats();
  EXPECT_EQ(st.compiles, 0);
  EXPECT_EQ(st.disk_hits, 1);
}

TEST(JitCache, PoisonedDiskEntryIsRebuiltNotFatal) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_dir("poison");
  const std::string key = KernelCache::make_key("poison", kProbeSrcA);
  std::string err;
  {
    KernelCache first(dir);
    ASSERT_TRUE(first.get(key, kProbeSrcA, err)) << err;
  }
  {
    std::ofstream so(dir + "/" + key + ".so", std::ios::trunc);
    so << "this is not a shared object";
  }
  KernelCache second(dir);
  auto mod = second.get(key, kProbeSrcA, err);
  ASSERT_TRUE(mod) << err;
  EXPECT_EQ(call_probe(mod), 7);
  const CacheStats st = second.stats();
  EXPECT_EQ(st.poisoned, 1);
  EXPECT_EQ(st.compiles, 1);
  EXPECT_EQ(st.disk_hits, 0);
}

// -------------------------------------------------------- fallbacks -----

dsl::StencilFunc cross_stencil() {
  dsl::StencilBuilder b("cross");
  auto in = b.field("in");
  auto out = b.field("out");
  b.parallel().full().assign(out, in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  return b.build();
}

ir::Program cross_program(exec::StencilArgs args = {}) {
  ir::Program p("cross");
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("cross", cross_stencil(), args)}});
  return p;
}

TEST(JitBackend, AliasedSlotBindingTakesTapePathWithSameValues) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  auto cs = std::make_shared<exec::CompiledStencil>(cross_stencil());
  KernelCache cache(fresh_dir("alias"));
  auto jp = exec::jit::JitProgram::build("alias", {{"cross", cs}}, cache);
  ASSERT_TRUE(jp->native()) << jp->error();

  // Both formals bound to one catalog field: slots alias, so the restrict-
  // carrying kernel must not run. The launch still executes (tape engine)
  // and produces exactly what the engine produces.
  exec::StencilArgs args;
  args.bind = {{"in", "f"}, {"out", "f"}};
  const exec::LaunchDomain dom{8, 7, 4};
  const ir::Program aliased = cross_program(args);
  FieldCatalog jc = verify::make_test_catalog(aliased, aliased, dom, 0x5EED);
  FieldCatalog tc = verify::make_test_catalog(aliased, aliased, dom, 0x5EED);
  jp->run(*cs, jc, args, dom, sched::Schedule{}, exec::RunOptions{});
  EXPECT_EQ(jp->fallbacks(), 1);
  cs->run(tc, args, dom);
  const auto div = verify::compare_fields_bitwise("f", jc.at("f"), tc.at("f"));
  EXPECT_TRUE(div.ok) << "aliased fallback diverged from tape engine";
}

TEST(Workspace, SharedExecutorsRunOnATeam) {
  // One CompiledStencil and one JitProgram, shared by a team that runs them
  // on distinct catalogs of different sizes. Every launch cuts its
  // temporaries from its own thread's arena, so each result equals a
  // serial launch bit for bit; every third launch binds both formals to
  // one field, and fallbacks() counts exactly those.
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  dsl::StencilBuilder b("cross_tmp");
  auto in = b.field("in");
  auto out = b.field("out");
  auto t = b.temp("t");
  b.parallel().full().assign(t, dsl::E(in) * 2.0 + 1.0).assign(
      out, t(1, 0) + t(-1, 0) + in(0, 1) - in(0, -1));
  auto cs = std::make_shared<exec::CompiledStencil>(b.build());
  KernelCache cache(fresh_dir("team"));
  auto jp = exec::jit::JitProgram::build("team", {{"cross_tmp", cs}}, cache);
  ASSERT_TRUE(jp->native()) << jp->error();

  const int n = 12;
  std::vector<exec::StencilArgs> args(n);
  std::vector<exec::LaunchDomain> doms;
  std::vector<FieldCatalog> jit_cats, tape_cats, want;
  long aliased = 0;
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      args[i].bind = {{"in", "f"}, {"out", "f"}};
      ++aliased;
    }
    doms.push_back(exec::LaunchDomain{6 + i, 5 + i % 4, 2 + i % 3});
    ir::Program p("team");
    p.append_state(ir::State{"s", {ir::SNode::make_stencil("s", cs->stencil(), args[i])}});
    const uint64_t seed = Rng::mix(0x7EA4, static_cast<uint64_t>(i));
    jit_cats.push_back(verify::make_test_catalog(p, p, doms.back(), seed));
    tape_cats.push_back(verify::make_test_catalog(p, p, doms.back(), seed));
    want.push_back(verify::make_test_catalog(p, p, doms.back(), seed));
    cs->run(want.back(), args[i], doms.back());
  }

#pragma omp parallel for num_threads(4) schedule(dynamic)
  for (int i = 0; i < n; ++i) {
    jp->run(*cs, jit_cats[i], args[i], doms[i], sched::Schedule{}, exec::RunOptions{});
    cs->run(tape_cats[i], args[i], doms[i]);
  }

  EXPECT_EQ(jp->fallbacks(), aliased);
  for (int i = 0; i < n; ++i) {
    for (const auto& name : want[i].names()) {
      EXPECT_TRUE(verify::compare_fields_bitwise(name, jit_cats[i].at(name), want[i].at(name)).ok)
          << "jit launch " << i << " field " << name;
      EXPECT_TRUE(verify::compare_fields_bitwise(name, tape_cats[i].at(name), want[i].at(name)).ok)
          << "tape launch " << i << " field " << name;
    }
  }
}

TEST(JitBackend, UnbuildableModuleFallsBackToTape) {
  auto cs = std::make_shared<exec::CompiledStencil>(cross_stencil());
  // A cache rooted somewhere unwritable can never produce a module; the
  // build must degrade, not throw, and runs must still compute.
  KernelCache cache("/proc/cyclone-jit-nonexistent/cache");
  auto jp = exec::jit::JitProgram::build("broken", {{"cross", cs}}, cache);
  EXPECT_FALSE(jp->native());
  EXPECT_FALSE(jp->error().empty());

  const exec::LaunchDomain dom{6, 5, 3};
  const ir::Program plain = cross_program();
  FieldCatalog jc = verify::make_test_catalog(plain, plain, dom, 0xF00D);
  FieldCatalog tc = verify::make_test_catalog(plain, plain, dom, 0xF00D);
  jp->run(*cs, jc, {}, dom, sched::Schedule{}, exec::RunOptions{});
  EXPECT_EQ(jp->fallbacks(), 1);
  cs->run(tc, {}, dom);
  const auto div = verify::compare_fields_bitwise("out", jc.at("out"), tc.at("out"));
  EXPECT_TRUE(div.ok);
}

TEST(JitBackend, MissingCompilerDegradesGracefully) {
  // End-to-end through the CLI so compiler discovery itself (a process-wide
  // memoized lookup) sees the broken CYCLONE_JIT_CXX.
  const char* tool = "../tools/verify_pipeline";
  if (!fs::exists(tool)) GTEST_SKIP() << "verify_pipeline not built here";
  const std::string cache_dir = test_tmp("jit-test-nocc");
  const std::string log_path = test_tmp("jit-test-nocc.out");
  const std::string cmd = std::string("CYCLONE_JIT_CXX=/nonexistent/cxx CYCLONE_JIT_CACHE_DIR=") +
                          cache_dir + " " + tool +
                          " --program fuzz:1 --backend jit --compare-serial > " + log_path +
                          " 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "jit backend without a compiler must still verify clean";
  std::ifstream log(log_path);
  std::string text((std::istreambuf_iterator<char>(log)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("falling back to tape engine"), std::string::npos) << text;
}

// ----------------------------------------- translation validation -----

exec::RunOptions jit_run(int threads) {
  exec::RunOptions run;
  run.backend = exec::ExecBackend::Jit;
  run.num_threads = threads;
  return run;
}

TEST(JitBackend, CrossStencilBitwiseVsInterpreter) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  const auto report = verify::check_parallel_agrees(cross_program(), jit_run(2));
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

/// The acceptance sweep: 200 random programs (same seed family as the
/// engine's determinism sweep), each run on the JIT backend at thread
/// counts {1, 2, 7} over a reduced domain list — bulk, corner placement on
/// a larger global tile, and a degenerate strip — and compared bitwise
/// against the serial reference interpreter. One compiled module per
/// program serves all thread counts (schedule knobs are runtime
/// arguments), keeping the sweep at 200 host-compiler invocations.
TEST(JitSweep, TwoHundredRandomProgramsBitwiseAcrossThreads) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  constexpr uint64_t kSweepBase = 0x9A7A11E1ull;  // matches the engine sweep
  verify::VerifyOptions vo;
  exec::LaunchDomain corner{9, 7, 6};
  corner.gni = 18;
  corner.gnj = 14;
  corner.gi0 = 9;
  corner.gj0 = 7;
  vo.domains = {exec::LaunchDomain{13, 11, 6}, corner, exec::LaunchDomain{1, 6, 5}};
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t seed = Rng::mix(kSweepBase, i);
    const ir::Program p = verify::random_program(seed);
    for (const int threads : {1, 2, 7}) {
      const auto report = verify::check_parallel_agrees(p, jit_run(threads), -1, -1, vo);
      EXPECT_TRUE(report.equivalent)
          << "seed=" << seed << " threads=" << threads << " " << report.first_failure();
      if (!report.equivalent) return;  // one reproducer is enough to debug
    }
  }
}

/// Full baroclinic dynamical-core step on the JIT backend, bitwise against
/// the reference interpreter on the model's own placement.
TEST(JitBackend, DycoreStepBitwiseVsInterpreter) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.ntracers = 2;
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  const ir::Program prog = fv3::build_dycore_program(state);
  verify::VerifyOptions vo;
  vo.domains = {state.domain()};
  const auto report =
      verify::check_parallel_agrees(verify::without_callbacks(prog), jit_run(2), -1, -1, vo);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

// ------------------------------------------ parallel region per kernel -----

/// Every hazard the barrier pass must order, one multi-statement stencil
/// each. Each kernel is one parallel region whose units close with a barrier
/// only where the next unit depends on the units since the last one, so a
/// misjudged hazard shows up as a race between worksharing loops.
std::vector<std::pair<std::string, ir::Program>> hazard_programs() {
  using dsl::E;
  std::vector<std::pair<std::string, ir::Program>> out;
  auto add = [&](const std::string& name, const dsl::StencilFunc& stencil,
                 const std::vector<std::string>& planes = {}) {
    ir::Program p(name);
    for (const std::string& f : planes) {
      p.set_field_meta(f, ir::FieldMeta{ir::FieldKind::Plane2D, false});
    }
    p.append_state(ir::State{"s", {ir::SNode::make_stencil(name, stencil, {})}});
    out.emplace_back(name, std::move(p));
  };
  {
    dsl::StencilBuilder b("raw_zero");
    auto in = b.field("in"), a = b.field("a"), c = b.field("c");
    b.parallel().full().assign(a, 2.0 * E(in) + 1.0).assign(c, E(a) * E(in) - E(a));
    add("raw_zero", b.build());
  }
  {
    dsl::StencilBuilder b("raw_j");
    auto in = b.field("in"), t = b.temp("t"), c = b.field("c");
    b.parallel().full().assign(t, E(in) * E(in) + 0.5).assign(c, t(0, 1) - t(0, -1) + t(1, 0));
    add("raw_j", b.build());
  }
  {
    dsl::StencilBuilder b("raw_k");
    auto in = b.field("in"), t = b.temp("t"), c = b.field("c");
    b.parallel().full().assign(t, E(in) * 3.0 - 1.0);
    b.parallel().interval(dsl::inner_levels(1, 1)).assign(c, t(0, 0, 1) - t(0, 0, -1));
    add("raw_k", b.build());
  }
  {
    dsl::StencilBuilder b("war_j");
    auto in = b.field("in"), a = b.field("a"), c = b.field("c");
    b.parallel().full().assign(c, a(0, 1) + a(0, -1) - a(1, 0)).assign(a, E(in) * 0.25);
    add("war_j", b.build());
  }
  {
    dsl::StencilBuilder b("waw_regions");
    auto in = b.field("in"), a = b.field("a"), c = b.field("c");
    b.parallel()
        .full()
        .assign(a, E(in) + 1.0)
        .assign_in(dsl::region_j_start(2), a, E(in) * 2.0)
        .assign(c, E(in) - 3.0)
        .assign_in(dsl::region_i_end(3), a, in(0, 1) * 0.5)
        .assign_in(dsl::region_j_end(1), a, in(-1, 0) - 4.0);
    add("waw_regions", b.build());
  }
  {
    dsl::StencilBuilder b("broadcast");
    auto in = b.field("in"), p = b.field("p"), c = b.field("c");
    b.parallel().full().assign(p, E(in) * 1.5 + 2.0).assign(c, p(0, 1) + p(1, 0) - E(in));
    add("broadcast", b.build(), {"p"});
  }
  {
    dsl::StencilBuilder b("two_phase");
    auto in = b.field("in"), a = b.field("a"), d = b.field("d"), c = b.field("c");
    b.parallel()
        .full()
        .assign(a, a(1, 0) + a(0, -1) - E(in))
        .assign(d, d(0, 1) * 0.5 + E(in))
        .assign(c, a(0, 1) + d(-1, 0));
    add("two_phase", b.build());
  }
  {
    dsl::StencilBuilder b("column_then_map");
    auto in = b.field("in"), col = b.field("col"), pl = b.field("pl"), c = b.field("c");
    auto fwd = b.forward();
    fwd.interval(dsl::first_levels(1)).assign(col, E(in)).assign(pl, E(in) * 0.5);
    fwd.interval(dsl::make_interval({1, false}, {0, true}))
        .assign(col, col(0, 0, -1) * 0.75 + E(in));
    fwd.interval(dsl::make_interval({1, false}, {0, true}))
        .assign(pl, pl(0, 0, -1) + col(0, 1) - col(1, 0));
    b.parallel().full().assign(c, col(0, 1) + col(0, -1) + pl(1, 0));
    add("column_then_map", b.build());
  }
  return out;
}

TEST(JitRegion, BarrierHazardsBitwiseAcrossTeamsBandsAndKMaps) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  // Large enough that every loop clears the 1024-point fork threshold, at
  // the tile origin and at the far corner (each region lands somewhere).
  verify::VerifyOptions vo;
  exec::LaunchDomain corner{24, 20, 6};
  corner.gni = 48;
  corner.gnj = 40;
  corner.gi0 = 24;
  corner.gj0 = 20;
  vo.domains = {exec::LaunchDomain{24, 20, 6}, corner};
  for (auto& [name, program] : hazard_programs()) {
    for (const int tile_j : {0, 1, 3}) {
      for (const bool k_as_map : {false, true}) {
        for (auto& state : program.states()) {
          for (auto& node : state.nodes) {
            node.schedule.tile_j = tile_j;
            node.schedule.k_as_map = k_as_map;
          }
        }
        for (const int threads : {1, 2, 3, 7}) {
          const auto report = verify::check_parallel_agrees(program, jit_run(threads), -1, -1, vo);
          ASSERT_TRUE(report.equivalent)
              << name << " tile_j=" << tile_j << " k_as_map=" << k_as_map
              << " threads=" << threads << ": " << report.first_failure();
        }
      }
    }
  }
}

/// The generated dycore module: one parallel region per kernel and none
/// nested, with the barrier pass's decisions pinned so that a change to the
/// analysis shows up in review.
TEST(JitRegion, DycoreKernelsOpenOneRegionEach) {
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.ntracers = 2;
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  const ir::Program prog = fv3::build_dycore_program(state);
  std::vector<std::shared_ptr<exec::CompiledStencil>> owned;
  std::vector<const exec::CompiledStencil*> stencils;
  std::set<const dsl::StencilFunc*> seen;
  for (const auto& st : prog.states()) {
    for (const auto& node : st.nodes) {
      if (node.kind != ir::SNode::Kind::Stencil || !seen.insert(node.stencil.get()).second) {
        continue;
      }
      owned.push_back(std::make_shared<exec::CompiledStencil>(*node.stencil));
      stencils.push_back(owned.back().get());
    }
  }
  const std::string tu = exec::jit::emit_translation_unit(stencils);
  auto count = [](const std::string& text, const std::string& what) {
    int n = 0;
    for (size_t at = text.find(what); at != std::string::npos; at = text.find(what, at + 1)) ++n;
    return n;
  };
  EXPECT_NE(tu.find("// ABI v" + std::to_string(exec::jit::kAbiVersion) + " "),
            std::string::npos);
  ASSERT_EQ(count(tu, "extern \"C\" void cyk_"), static_cast<int>(stencils.size()));
  for (size_t k = 0; k < stencils.size(); ++k) {
    const std::string head = "extern \"C\" void cyk_" + std::to_string(k) + "(";
    const size_t begin = tu.find(head);
    ASSERT_NE(begin, std::string::npos) << head;
    const std::string body = tu.substr(begin, tu.find("\n}\n", begin) - begin);
    EXPECT_EQ(count(body, "omp parallel"), 1) << stencils[k]->stencil().name();
  }
  EXPECT_EQ(count(tu, "omp parallel for"), 0);
  // 47 kernels, 217 units (201 parallel maps, 16 column sweeps): 170 unit
  // boundaries, of which the slot-level rule lets 48 go without a barrier.
  EXPECT_EQ(stencils.size(), 47u);
  EXPECT_EQ(count(tu, "#pragma omp barrier"), 122);
  EXPECT_EQ(count(tu, "// nowait: "), 48);
}

}  // namespace
}  // namespace cyclone
