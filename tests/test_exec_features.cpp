// Focused tests for the executor features the FV3 port depends on: per-call
// extended compute domains (DomainExt), single-level (2-D) field broadcast,
// interface-field interval clipping, and the per-thread temporary arena.

#include <gtest/gtest.h>

#include "core/dsl/builder.hpp"
#include "core/exec/extents.hpp"
#include "core/exec/interpreter.hpp"
#include "core/exec/tape.hpp"
#include "core/ir/program.hpp"
#include "core/util/rng.hpp"
#include "core/verify/verify.hpp"
#include "fv3/stencils/damping.hpp"
#include "fv3/stencils/fv_tp2d.hpp"
#include "fv3/stencils/remap.hpp"

namespace cyclone::exec {
namespace {

using dsl::E;
using dsl::StencilBuilder;

TEST(DomainExt, ExtendsApplyRectangleAllSides) {
  StencilBuilder b("mark");
  auto q = b.field("q");
  b.parallel().full().assign(q, 1.0);

  FieldCatalog cat;
  cat.create("q", 6, 6, 2, HaloSpec{3, 3}).fill(0.0);
  LaunchDomain dom{6, 6, 2};
  dom.ext = DomainExt{2, 1, 0, 3};
  CompiledStencil(b.build()).run(cat, dom);

  EXPECT_EQ(cat.at("q")(-2, 0, 0), 1.0);   // ilo extension
  EXPECT_EQ(cat.at("q")(-3, 0, 0), 0.0);   // beyond it
  EXPECT_EQ(cat.at("q")(6, 0, 0), 1.0);    // ihi extension
  EXPECT_EQ(cat.at("q")(7, 0, 0), 0.0);
  EXPECT_EQ(cat.at("q")(0, -1, 0), 0.0);   // jlo not extended
  EXPECT_EQ(cat.at("q")(0, 8, 1), 1.0);    // jhi extension
}

TEST(DomainExt, RegionsStillResolveAgainstTrueTileEdges) {
  StencilBuilder b("edge");
  auto q = b.field("q");
  b.parallel().full().assign_in(dsl::region_i_end(1), q, 9.0);

  FieldCatalog cat;
  cat.create("q", 6, 6, 1, HaloSpec{3, 3}).fill(0.0);
  LaunchDomain dom{6, 6, 1};
  dom.gni = 6;
  dom.gnj = 6;
  dom.ext = DomainExt{0, 2, 0, 0};
  CompiledStencil(b.build()).run(cat, dom);
  // The region is the global row i = 5, not the extended rows 6-7.
  EXPECT_EQ(cat.at("q")(5, 2, 0), 9.0);
  EXPECT_EQ(cat.at("q")(6, 2, 0), 0.0);
  EXPECT_EQ(cat.at("q")(7, 2, 0), 0.0);
}

TEST(DomainExt, TempsCoverExtendedRect) {
  // A temp consumed at an offset, on an extended launch: its allocation
  // must grow with the extension or writes would run out of bounds.
  StencilBuilder b("chain");
  auto in = b.field("in");
  auto out = b.field("out");
  auto tmp = b.temp("tmp");
  b.parallel().full().assign(tmp, in(-1, 0) + in(1, 0)).assign(out, tmp(-1, 0) + tmp(1, 0));

  FieldCatalog cat;
  auto& in_f = cat.create("in", 8, 8, 2, HaloSpec{3, 3});
  cat.create("out", 8, 8, 2, HaloSpec{3, 3});
  in_f.fill_with([](int i, int, int) { return static_cast<double>(i); });
  LaunchDomain dom{8, 8, 2};
  dom.ext = DomainExt{1, 1, 1, 1};
  CompiledStencil(b.build()).run(cat, dom);
  for (int i = -1; i < 9; ++i) EXPECT_DOUBLE_EQ(cat.at("out")(i, 4, 1), 4.0 * i);
}

TEST(Broadcast, TwoDFieldReadAtAllLevels) {
  StencilBuilder b("scale_by_2d");
  auto q = b.field("q");
  auto f2d = b.field("f2d");
  b.parallel().full().assign(q, E(q) * E(f2d));

  FieldCatalog cat;
  cat.create("q", 4, 4, 5).fill(2.0);
  cat.create("f2d", 4, 4, 1).fill_with([](int i, int j, int) { return i + 10.0 * j; });
  CompiledStencil(b.build()).run(cat, LaunchDomain{4, 4, 5});
  for (int k = 0; k < 5; ++k) {
    EXPECT_DOUBLE_EQ(cat.at("q")(2, 3, k), 2.0 * (2 + 30));
  }
}

TEST(Broadcast, TwoDFieldWrittenFromAnyLevelInterval) {
  // Writing a 2-D field inside a 3-D launch lands on the single plane
  // (GT4Py IJ-field semantics); the surviving value is the last level's.
  StencilBuilder b("collapse");
  auto ps = b.field("ps");
  auto pe = b.field("pe");
  b.parallel().interval(dsl::last_levels(1)).assign(ps, E(pe));

  FieldCatalog cat;
  cat.create("ps", 3, 3, 1);
  cat.create("pe", 3, 3, 6).fill_with([](int, int, int k) { return 100.0 * k; });
  CompiledStencil(b.build()).run(cat, LaunchDomain{3, 3, 6});
  EXPECT_DOUBLE_EQ(cat.at("ps")(1, 1, 0), 500.0);
}

TEST(Broadcast, RefAndTapeAgree) {
  StencilBuilder b("mix");
  auto q = b.field("q");
  auto m = b.field("metric");
  b.parallel().full().assign(q, E(q) + m(1, 0) - m(-1, 0));

  auto make = [](FieldCatalog& cat) {
    Rng rng(3);
    cat.create("q", 6, 5, 4, HaloSpec{1, 1}).fill(1.0);
    cat.create("metric", 6, 5, 1, HaloSpec{1, 1})
        .fill_with([&](int, int, int) { return rng.uniform(0, 1); });
  };
  FieldCatalog a, c;
  make(a);
  make(c);
  CompiledStencil(b.build()).run(a, LaunchDomain{6, 5, 4});
  RefExecutor(b.build()).run(c, LaunchDomain{6, 5, 4});
  EXPECT_EQ(FieldD::max_abs_diff(a.at("q"), c.at("q")), 0.0);
}

TEST(InterfaceFields, IntervalBeyondDomainClipsToAllocation) {
  // interval [1, nk+1) writes the nk+1-level field's last level; a center
  // field in the same launch is untouched beyond its nk levels.
  StencilBuilder b("iface");
  auto pe = b.field("pe");
  auto delp = b.field("delp");
  b.forward()
      .interval(dsl::make_interval(dsl::KBound{1, false}, dsl::KBound{1, true}))
      .assign(pe, pe.at_k(-1) + delp.at_k(-1));

  FieldCatalog cat;
  cat.create("pe", 4, 4, 6).fill(0.0);
  cat.create("delp", 4, 4, 5).fill(10.0);
  cat.at("pe")(1, 1, 0) = 100.0;
  CompiledStencil(b.build()).run(cat, LaunchDomain{4, 4, 5});
  EXPECT_DOUBLE_EQ(cat.at("pe")(1, 1, 5), 150.0);  // level nk written
}

TEST(TempPooling, RepeatedRunsReuseAndStayCorrect) {
  StencilBuilder b("sum3");
  auto in = b.field("in");
  auto out = b.field("out");
  auto tmp = b.temp("tmp");
  b.parallel().full().assign(tmp, E(in) * 2.0).assign(out, tmp(-1, 0) + tmp(1, 0));

  CompiledStencil cs(b.build());
  FieldCatalog cat;
  auto& in_f = cat.create("in", 8, 8, 3, HaloSpec{2, 2});
  cat.create("out", 8, 8, 3, HaloSpec{2, 2});
  in_f.fill_with([](int i, int, int) { return static_cast<double>(i); });

  // Repeated launches reuse the thread's arena: it stops growing after the
  // first, and every launch computes the same values.
  FieldD first("first", 8, 8, 3, HaloSpec{2, 2});
  cs.run(cat, LaunchDomain{8, 8, 3});
  first.copy_from(cat.at("out"));
  const size_t capacity = Workspace::local().temp_capacity();
  EXPECT_GT(capacity, 0u);
  for (int rep = 0; rep < 4; ++rep) cs.run(cat, LaunchDomain{8, 8, 3});
  EXPECT_EQ(Workspace::local().temp_capacity(), capacity);
  EXPECT_EQ(FieldD::max_abs_diff(first, cat.at("out")), 0.0);

  // A smaller geometry is cut from the same arena.
  FieldCatalog small;
  auto& sin_f = small.create("in", 4, 4, 2, HaloSpec{2, 2});
  small.create("out", 4, 4, 2, HaloSpec{2, 2});
  sin_f.fill(1.0);
  cs.run(small, LaunchDomain{4, 4, 2});
  EXPECT_DOUBLE_EQ(small.at("out")(1, 1, 1), 4.0);
  EXPECT_EQ(Workspace::local().temp_capacity(), capacity);
}

TEST(Workspace, InterleavedLaunchesMatchInterpreter) {
  // Stencils with different temporary halos and k extents take turns in one
  // thread's arena, each reading temporaries the previous one left behind
  // in the same memory: fv_tp_2d (eight temporaries with halos, launched
  // with a face-row extension), remap_field (an interface temporary) and a
  // temporary read at (-1, 0). Three geometries, the last a repeat of the
  // first after a larger one grew the arena.
  StencilBuilder b("shift");
  auto in = b.field("in");
  auto out = b.field("out");
  auto t = b.temp("t");
  b.parallel().full().assign(t, E(in) * 3.0 - 1.0).assign(out, t(-1, 0) * 0.5 + E(t));

  ir::Program prog("interleaved");
  prog.append_state(
      ir::State{"fvt", {fv3::fv_tp2d_node("fvt", "q", "fx", "fy", sched::Schedule{})}});
  StencilArgs remap_args;
  remap_args.bind["q"] = "qr";
  prog.append_state(ir::State{
      "remap", {ir::SNode::make_stencil("remap", fv3::build_remap_field(), remap_args)}});
  prog.append_state(ir::State{"shift", {ir::SNode::make_stencil("shift", b.build())}});
  prog.control_flow() = ir::CFNode::sequence({ir::CFNode::loop(
      "rep", 2,
      {ir::CFNode::state_ref(0), ir::CFNode::state_ref(1), ir::CFNode::state_ref(2)})});
  for (const char* name : {"pe", "pe_ref"}) {
    prog.set_field_meta(name, ir::FieldMeta{ir::FieldKind::Interface3D});
  }
  ir::Program ref = prog;
  RunOptions interp;
  interp.backend = ExecBackend::Interpreter;
  ref.set_run_options(interp);
  RunOptions one;
  one.num_threads = 1;
  prog.set_run_options(one);

  for (const LaunchDomain& dom : {LaunchDomain{16, 12, 6}, LaunchDomain{24, 20, 9},
                                  LaunchDomain{16, 12, 6}}) {
    FieldCatalog got = verify::make_test_catalog(prog, prog, dom, 0xA7E4A);
    FieldCatalog want = verify::make_test_catalog(prog, prog, dom, 0xA7E4A);
    prog.execute(got, dom);
    ref.execute(want, dom);
    for (const auto& name : want.names()) {
      const auto div = verify::compare_fields_bitwise(name, got.at(name), want.at(name));
      EXPECT_TRUE(div.ok) << name << " at " << dom.ni << "x" << dom.nj << "x" << dom.nk;
    }
  }
}

TEST(Workspace, UnwrittenTemporaryCellsReadZero) {
  // A fresh temporary reads 0 where no statement wrote it. Each stencil
  // below reads such cells and runs right after "dirty" has filled the
  // same arena memory with 7.5: a region-only write read over the whole
  // domain, a read before the first write, and a level gap between write
  // intervals. A FORWARD recurrence that writes every level it reads,
  // fillz (a sweep reading the level above before a later statement writes
  // this one) and fv_tp_2d need no zeroing.
  StencilBuilder dirty("dirty");
  {
    auto in = dirty.field("in");
    auto out = dirty.field("out_d");
    auto c = dirty.parallel().full();
    for (const char* name : {"d0", "d1", "d2", "d3"}) {
      auto d = dirty.temp(name);
      c.assign(d, E(in) * 0.0 + 7.5).assign(out, d(3, 0) + d(-3, 0) + d(0, 3) + d(0, -3));
    }
  }
  StencilBuilder region("region");
  {
    auto in = region.field("in");
    auto out = region.field("out_r");
    auto r = region.temp("r");
    region.parallel().full().assign_in(dsl::region_i_start(2), r, E(in) + 1.0).assign(
        out, r(1, 0) + E(r));
  }
  StencilBuilder early("early");
  {
    auto in = early.field("in");
    auto out = early.field("out_e");
    auto t = early.temp("t");
    early.parallel().full().assign(out, E(t) + E(in)).assign(t, E(in) * 2.0);
  }
  StencilBuilder gap("gap");
  {
    auto in = gap.field("in");
    auto out = gap.field("out_g");
    auto g = gap.temp("g");
    auto c = gap.parallel();
    c.interval(dsl::first_levels(1)).assign(g, E(in));
    c.interval(dsl::last_levels(1)).assign(g, E(in) - 1.0);
    gap.parallel().full().assign(out, E(g));
  }
  StencilBuilder sweep("sweep");
  {
    auto in = sweep.field("in");
    auto out = sweep.field("out_s");
    auto s = sweep.temp("s");
    auto c = sweep.forward();
    c.interval(dsl::first_levels(1)).assign(s, E(in));
    c.interval(dsl::make_interval(dsl::KBound{1, false}, dsl::KBound{0, true}))
        .assign(s, s(0, 0, -1) * 0.5 + E(in));
    sweep.parallel().full().assign(out, E(s));
  }
  const dsl::StencilFunc filler = dirty.build();
  const std::vector<dsl::StencilFunc> readers{region.build(), early.build(), gap.build(),
                                              sweep.build()};
  const auto zeroed = [](const dsl::StencilFunc& f, const std::string& temp) {
    return compute_temp_allocs(f).at(temp).zero;
  };
  EXPECT_TRUE(zeroed(readers[0], "r"));
  EXPECT_TRUE(zeroed(readers[1], "t"));
  EXPECT_TRUE(zeroed(readers[2], "g"));
  EXPECT_FALSE(zeroed(readers[3], "s"));
  EXPECT_FALSE(zeroed(filler, "d0"));
  for (const dsl::StencilFunc& f : {fv3::build_fv_tp2d(), fv3::build_fillz()}) {
    for (const auto& [name, ta] : compute_temp_allocs(f)) {
      EXPECT_FALSE(ta.zero) << f.name() << " temporary " << name;
    }
  }

  ir::Program prog("unwritten");
  std::vector<ir::CFNode> order;
  for (const dsl::StencilFunc& f : readers) {
    order.push_back(ir::CFNode::state_ref(prog.append_state(
        ir::State{"dirty_" + f.name(), {ir::SNode::make_stencil("dirty", filler)}})));
    order.push_back(ir::CFNode::state_ref(
        prog.append_state(ir::State{f.name(), {ir::SNode::make_stencil(f.name(), f)}})));
  }
  prog.control_flow() = ir::CFNode::sequence({ir::CFNode::loop("rep", 2, order)});
  ir::Program ref = prog;
  RunOptions interp;
  interp.backend = ExecBackend::Interpreter;
  ref.set_run_options(interp);
  RunOptions one;
  one.num_threads = 1;
  prog.set_run_options(one);

  const LaunchDomain dom{12, 10, 5};
  FieldCatalog got = verify::make_test_catalog(prog, prog, dom, 0x2E70);
  FieldCatalog want = verify::make_test_catalog(prog, prog, dom, 0x2E70);
  prog.execute(got, dom);
  ref.execute(want, dom);
  for (const auto& name : want.names()) {
    const auto div = verify::compare_fields_bitwise(name, got.at(name), want.at(name));
    EXPECT_TRUE(div.ok) << name;
  }
}

}  // namespace
}  // namespace cyclone::exec
