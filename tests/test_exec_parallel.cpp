// Translation validation of the schedule-aware OpenMP execution engine: every
// enumerated schedule, thread count, and tile shape must reproduce the serial
// reference interpreter bitwise (0 ULP). The engine's determinism contract —
// static tile ownership, no cross-thread reductions, a barrier per statement —
// makes this a hard equality, not a tolerance check.

#include <gtest/gtest.h>

#include <set>

#include "core/dsl/builder.hpp"
#include "core/exec/engine.hpp"
#include "core/util/rng.hpp"
#include "core/verify/random_program.hpp"
#include "core/verify/verify.hpp"

namespace cyclone::exec {
namespace {

using dsl::E;
using dsl::StencilBuilder;

constexpr uint64_t kFuzzBase = 0x9A7A11E1ull;

// ---------------------------------------------------------------- tiling ----

TEST(DecomposeTiles, UntiledIsOneTile) {
  const auto tiles = decompose_tiles(Rect{{0, 10}, {0, 7}}, 0, 0);
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0].i.lo, 0);
  EXPECT_EQ(tiles[0].i.hi, 10);
  EXPECT_EQ(tiles[0].j.lo, 0);
  EXPECT_EQ(tiles[0].j.hi, 7);
}

TEST(DecomposeTiles, EmptyRectHasNoTiles) {
  EXPECT_TRUE(decompose_tiles(Rect{{3, 3}, {0, 5}}, 4, 4).empty());
  EXPECT_TRUE(decompose_tiles(Rect{{5, 2}, {0, 5}}, 4, 4).empty());
}

/// Tiles must partition the rectangle exactly: every cell in exactly one
/// tile, every tile non-empty, remainder tiles clipped (never negative).
void expect_exact_partition(const Rect& rect, int ti, int tj) {
  const auto tiles = decompose_tiles(rect, ti, tj);
  std::set<std::pair<int, int>> covered;
  for (const auto& t : tiles) {
    EXPECT_GT(t.i.size(), 0);
    EXPECT_GT(t.j.size(), 0);
    EXPECT_GE(t.i.lo, rect.i.lo);
    EXPECT_LE(t.i.hi, rect.i.hi);
    for (int j = t.j.lo; j < t.j.hi; ++j) {
      for (int i = t.i.lo; i < t.i.hi; ++i) {
        EXPECT_TRUE(covered.insert({i, j}).second) << "cell (" << i << "," << j << ") twice";
      }
    }
  }
  EXPECT_EQ(covered.size(),
            static_cast<size_t>(rect.i.size()) * static_cast<size_t>(rect.j.size()));
}

TEST(DecomposeTiles, RemainderTilesAreClipped) {
  expect_exact_partition(Rect{{0, 10}, {0, 9}}, 4, 4);   // 2 remainder, 1 remainder
  expect_exact_partition(Rect{{0, 7}, {0, 13}}, 8, 8);   // tile wider than rect
  expect_exact_partition(Rect{{0, 12}, {0, 12}}, 4, 16);  // skewed shape
  expect_exact_partition(Rect{{0, 5}, {0, 5}}, 1, 1);    // one cell per tile
}

TEST(DecomposeTiles, NegativeLowBoundsTileFromActualCorner) {
  // Halo-extended rectangles start below zero (DomainExt); tiling must start
  // at the actual low corner, not at zero.
  expect_exact_partition(Rect{{-3, 7}, {-2, 9}}, 4, 4);
  const auto tiles = decompose_tiles(Rect{{-3, 7}, {0, 1}}, 4, 0);
  ASSERT_FALSE(tiles.empty());
  EXPECT_EQ(tiles[0].i.lo, -3);
  EXPECT_EQ(tiles[0].i.hi, 1);
}

TEST(DecomposeTiles, OversizedTileClipsToDomain) {
  const auto tiles = decompose_tiles(Rect{{0, 6}, {0, 4}}, sched::kMaxTile, sched::kMaxTile);
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0].i.size(), 6);
  EXPECT_EQ(tiles[0].j.size(), 4);
}

TEST(RunOptions, ResolvedNumThreads) {
  RunOptions serial;
  serial.backend = ExecBackend::Tape;
  serial.num_threads = 8;  // ignored: the Tape backend is the serial path
  EXPECT_EQ(resolved_num_threads(serial), 1);
  RunOptions explicit_count;
  explicit_count.num_threads = 5;
  EXPECT_EQ(resolved_num_threads(explicit_count), 5);
  EXPECT_GE(resolved_num_threads(RunOptions{}), 1);
}

// The executor selector's documented contract (launch.hpp): every backend's
// short name parses back to itself, the long aliases parse, and an unknown
// name is rejected without touching the output.
TEST(RunOptions, BackendNamesRoundTripThroughParse) {
  for (const ExecBackend b :
       {ExecBackend::Interpreter, ExecBackend::Tape, ExecBackend::OpenMP, ExecBackend::Jit}) {
    ExecBackend parsed = b == ExecBackend::Jit ? ExecBackend::Tape : ExecBackend::Jit;
    ASSERT_TRUE(parse_backend(backend_name(b), parsed)) << backend_name(b);
    EXPECT_EQ(parsed, b) << backend_name(b);
  }
}

TEST(RunOptions, BackendAliasesParse) {
  ExecBackend parsed = ExecBackend::Jit;
  ASSERT_TRUE(parse_backend("interpreter", parsed));
  EXPECT_EQ(parsed, ExecBackend::Interpreter);
  ASSERT_TRUE(parse_backend("omp", parsed));
  EXPECT_EQ(parsed, ExecBackend::OpenMP);
}

TEST(RunOptions, UnknownBackendLeavesOutputUntouched) {
  for (const ExecBackend b :
       {ExecBackend::Interpreter, ExecBackend::Tape, ExecBackend::OpenMP, ExecBackend::Jit}) {
    ExecBackend out = b;
    for (const char* name : {"", "cuda", "JIT", "tape ", "reference", "compiled"}) {
      EXPECT_FALSE(parse_backend(name, out)) << "'" << name << "'";
      EXPECT_EQ(out, b) << "'" << name << "'";
    }
  }
}

// ------------------------------------------------- schedule sweep oracle ----

/// Horizontal program: offset reads, an intra-interval dependency on a field
/// written by an earlier statement (exercises the per-statement barrier and
/// the non-independent fallback), and a second node consuming the first.
ir::Program horizontal_program() {
  ir::Program p("horizontal");
  StencilBuilder b("diffuse");
  auto in = b.field("in");
  auto mid = b.field("mid");
  auto out = b.field("out");
  {
    auto c = b.parallel().full();
    c.assign(mid, in(-1, 0) + in(1, 0) + in(0, -1) + in(0, 1) - 4.0 * E(in));
    c.assign(out, mid(-1, 0) + mid(1, 0) + 0.5 * E(mid));  // horiz read of mid
  }
  StencilBuilder b2("relax");
  auto out2 = b2.field("out");
  auto acc = b2.field("acc");
  b2.parallel().full().assign(acc, E(acc) + 0.25 * E(out2));
  p.append_state(
      ir::State{"s0",
                {ir::SNode::make_stencil("diffuse", b.build(), {}, sched::default_schedule()),
                 ir::SNode::make_stencil("relax", b2.build(), {}, sched::default_schedule())}});
  return p;
}

/// Vertical program: a forward recurrence and a backward substitution (the
/// column-sweep path, with k-offset self-reads that force sequential k).
ir::Program vertical_program() {
  ir::Program p("vertical");
  StencilBuilder b("sweep");
  auto q = b.field("q");
  auto w = b.field("w");
  b.forward().interval(dsl::first_levels(1)).assign(q, E(w) * 0.5);
  b.forward().interval(dsl::inner_levels(1, 0)).assign(q, q.at_k(-1) * 0.9 + E(w));
  b.backward().interval(dsl::last_levels(1)).assign(w, E(q));
  b.backward().interval(dsl::inner_levels(0, 1)).assign(w, w.at_k(1) * 0.8 + E(q));
  p.append_state(ir::State{
      "s0", {ir::SNode::make_stencil("sweep", b.build(), {}, sched::tuned_vertical())}});
  return p;
}

/// Domains for the schedule sweep: a bulk shape with remainder tiles under
/// every enumerated tile size, plus the degenerate 1xN and Nx1 strips.
std::vector<LaunchDomain> sweep_domains() {
  return {LaunchDomain{13, 11, 6}, LaunchDomain{1, 7, 5}, LaunchDomain{7, 1, 5}};
}

TEST(ParallelEngine, EveryParallelScheduleMatchesInterpreterBitwise) {
  ir::Program prog = horizontal_program();
  verify::VerifyOptions vo;
  vo.domains = sweep_domains();
  for (const auto& s : sched::enumerate_valid(dsl::IterOrder::Parallel)) {
    for (auto& node : prog.states()[0].nodes) node.schedule = s;
    for (int threads : {2, 7}) {
      RunOptions run;
      run.num_threads = threads;
      const auto report = verify::check_parallel_agrees(prog, run, -1, -1, vo);
      EXPECT_TRUE(report.equivalent) << "schedule [" << s.describe() << "] threads=" << threads
                                     << " " << report.first_failure();
    }
  }
}

TEST(ParallelEngine, EveryVerticalScheduleMatchesInterpreterBitwise) {
  ir::Program prog = vertical_program();
  verify::VerifyOptions vo;
  vo.domains = sweep_domains();
  for (const auto& s : sched::enumerate_valid(dsl::IterOrder::Forward)) {
    for (auto& node : prog.states()[0].nodes) node.schedule = s;
    for (int threads : {2, 7}) {
      RunOptions run;
      run.num_threads = threads;
      const auto report = verify::check_parallel_agrees(prog, run, -1, -1, vo);
      EXPECT_TRUE(report.equivalent) << "schedule [" << s.describe() << "] threads=" << threads
                                     << " " << report.first_failure();
    }
  }
}

TEST(ParallelEngine, SerialRunOptionIsStillBitwiseIdentical) {
  // The Tape backend must take the exact serial path (a team of one).
  RunOptions serial;
  serial.backend = ExecBackend::Tape;
  const auto report = verify::check_parallel_agrees(horizontal_program(), serial);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

// ----------------------------------------------------- fuzzed 200 sweep -----

/// The acceptance-criteria sweep: 200 fuzzed programs, each executed at
/// thread counts {1, 2, 7} crossed with tile-shape overrides, every run
/// compared bitwise against the serial interpreter. Reduced domain list keeps
/// the 1800-configuration sweep within test-suite budget; the shapes chosen
/// still cover remainder tiles, edge placements, and degenerate strips.
TEST(ParallelVerify, FuzzedProgramsDeterministicAcrossThreadsAndTiles) {
  verify::VerifyOptions vo;
  LaunchDomain corner{9, 7, 6};
  corner.gni = 18;
  corner.gnj = 14;
  corner.gi0 = 9;
  corner.gj0 = 7;
  vo.domains = {LaunchDomain{13, 11, 6}, corner, LaunchDomain{1, 6, 5}};
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, i);
    const ir::Program p = verify::random_program(seed);
    const auto report = verify::check_parallel_determinism(p, vo);
    EXPECT_TRUE(report.equivalent) << "seed=" << seed << " " << report.first_failure();
    if (!report.equivalent) return;  // one reproducer is enough to debug
  }
}

// -------------------------------------------------- mutation catch rate -----

/// Tile-boundary off-by-ones (shifted tile origin, dropped remainder tile)
/// injected into fuzzed programs must be caught by the *parallel* oracle run:
/// threading and tiling must not mask boundary defects. interior_shrink is 0
/// because these defects live exactly at the apply-rect edges; that is sound
/// here since both sides run the same program modulo the injected defect.
TEST(ParallelVerify, TileBoundaryMutationsAreCaughtByParallelOracle) {
  verify::VerifyOptions vo;
  vo.interior_shrink = 0;
  // Domains that own their global-tile edges, so every boundary restriction
  // binds: the whole tile, and a corner placement owning the high edges.
  LaunchDomain high_corner{10, 9, 5};
  high_corner.gni = 20;
  high_corner.gnj = 18;
  high_corner.gi0 = 10;
  high_corner.gj0 = 9;
  vo.domains = {LaunchDomain{12, 10, 6}, high_corner};
  int attempted = 0;
  int caught = 0;
  RunOptions run;
  run.num_threads = 7;
  for (uint64_t i = 0; i < 40; ++i) {
    const uint64_t seed = Rng::mix(kFuzzBase, 8000 + i);
    const ir::Program original = verify::random_program(seed);
    ir::Program mutant = original;
    const std::string defect =
        verify::mutate_program(mutant, seed, verify::MutationClass::TileBoundary);
    if (defect.empty()) continue;
    ++attempted;
    if (!verify::check_equivalent_parallel(original, mutant, run, 5, 4, vo).equivalent) {
      ++caught;
    }
  }
  ASSERT_GE(attempted, 30);
  EXPECT_GE(caught * 10, attempted * 9)
      << "caught only " << caught << "/" << attempted << " tile-boundary defects";
}

}  // namespace
}  // namespace cyclone::exec
