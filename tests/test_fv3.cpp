#include <gtest/gtest.h>

#include <cmath>

#include "core/exec/tape.hpp"
#include "core/ir/lint.hpp"
#include "core/util/rng.hpp"
#include "core/verify/verify.hpp"
#include "core/xform/expr_rewrite.hpp"
#include "fv3/driver.hpp"
#include "fv3/init/baroclinic.hpp"
#include "fv3/stencils/c_sw.hpp"
#include "fv3/stencils/d_sw.hpp"
#include "fv3/stencils/fv_tp2d.hpp"
#include "fv3/stencils/pressure.hpp"
#include "fv3/stencils/remap.hpp"
#include "fv3/stencils/riem_solver.hpp"
#include "fv3/stencils/update_dz.hpp"
#include "swe/driver.hpp"
#include "swe/swe_core.hpp"

namespace cyclone::fv3 {
namespace {

FvConfig small_config() {
  FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = 2;
  cfg.dt = 300.0;
  return cfg;
}

// ---- fv_tp_2d --------------------------------------------------------------

struct TransportSetup {
  FieldCatalog cat;
  exec::LaunchDomain dom{16, 16, 4};

  explicit TransportSetup(double courant, uint64_t seed = 0) {
    cat.create("q", 16, 16, 4);
    cat.create("crx", 16, 16, 4);
    cat.create("cry", 16, 16, 4);
    cat.create("fx", 16, 16, 4);
    cat.create("fy", 16, 16, 4);
    cat.at("crx").fill(courant);
    cat.at("cry").fill(courant);
    if (seed) {
      Rng rng(seed);
      cat.at("q").fill_with([&](int, int, int) { return rng.uniform(0.0, 2.0); });
    }
  }

  void run() {
    // Fluxes are computed on the face-extended domain (as fv_tp2d_node sets
    // ext_i/ext_j = 1), the update on the cell domain.
    exec::LaunchDomain flux_dom = dom;
    flux_dom.ni += 1;
    flux_dom.nj += 1;
    flux_dom.gni = dom.ni;
    flux_dom.gnj = dom.nj;
    exec::CompiledStencil cs(build_fv_tp2d());
    cs.run(cat, flux_dom);
    exec::CompiledStencil upd(build_flux_update());
    upd.run(cat, dom);
  }
};

TEST(FvTp2d, ConstantFieldIsInvariant) {
  TransportSetup s(0.3);
  s.cat.at("q").fill(5.0);
  s.run();
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) EXPECT_NEAR(s.cat.at("q")(i, j, 2), 5.0, 1e-12);
}

TEST(FvTp2d, ZeroWindMovesNothing) {
  TransportSetup s(0.0, /*seed=*/42);
  FieldD before("before", 16, 16, 4);
  before.copy_from(s.cat.at("q"));
  s.run();
  EXPECT_EQ(FieldD::max_abs_diff(before, s.cat.at("q")), 0.0);
}

TEST(FvTp2d, MassConservedPeriodicInterior) {
  // Total q over the interior changes only by boundary fluxes; compare the
  // interior sum change against the accumulated boundary fluxes.
  TransportSetup s(0.25, /*seed=*/7);
  double before = 0;
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 16; ++i) before += s.cat.at("q")(i, j, k);
  s.run();
  double after = 0, boundary = 0;
  for (int k = 0; k < 4; ++k) {
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 16; ++i) after += s.cat.at("q")(i, j, k);
    for (int j = 0; j < 16; ++j) {
      boundary += s.cat.at("fx")(0, j, k) - s.cat.at("fx")(16, j, k);
    }
    for (int i = 0; i < 16; ++i) {
      boundary += s.cat.at("fy")(i, 0, k) - s.cat.at("fy")(i, 16, k);
    }
  }
  EXPECT_NEAR(after - before, boundary, 1e-9 * std::abs(before));
}

TEST(FvTp2d, MonotoneNoNewExtrema) {
  // Advection of a 0/1 step must stay within [min, max] (monotonicity of the
  // limited scheme).
  TransportSetup s(0.4);
  s.cat.at("q").fill_with([](int i, int, int) { return i < 8 ? 0.0 : 1.0; });
  for (int rep = 0; rep < 3; ++rep) s.run();
  for (int k = 0; k < 4; ++k)
    for (int j = 2; j < 14; ++j)
      for (int i = 2; i < 14; ++i) {
        EXPECT_GE(s.cat.at("q")(i, j, k), -1e-12);
        EXPECT_LE(s.cat.at("q")(i, j, k), 1.0 + 1e-12);
      }
}

TEST(FvTp2d, UpwindDirectionRespected) {
  // A blob with positive wind must move toward +i, never upstream.
  TransportSetup s(0.5);
  s.cat.at("cry").fill(0.0);
  s.cat.at("q").fill(0.0);
  for (int k = 0; k < 4; ++k) s.cat.at("q")(4, 8, k) = 1.0;
  s.run();
  EXPECT_GT(s.cat.at("q")(5, 8, 1), 0.0);
  EXPECT_NEAR(s.cat.at("q")(3, 8, 1), 0.0, 1e-12);
}

// ---- Riemann solver --------------------------------------------------------

struct RiemannSetup {
  FieldCatalog cat;
  exec::LaunchDomain dom{6, 6, 12};
  FvConfig cfg;
  double dt = 10.0;

  RiemannSetup() {
    cfg = small_config();
    cfg.npz = 12;
    for (const char* name : {"delz", "w", "delp", "aa", "bb", "cc", "rhs", "gam", "pp"}) {
      cat.create(name, 6, 6, 12);
    }
    cat.at("delp").fill(1.2e4);
    Rng rng(3);
    cat.at("delz").fill_with([&](int, int, int) { return rng.uniform(200.0, 600.0); });
    cat.at("w").fill_with([&](int, int, int) { return rng.uniform(-2.0, 2.0); });
  }

  void run() {
    exec::StencilArgs pre;
    pre.params["dt"] = dt;
    pre.params["cs2"] = grid::kRdGas * cfg.t_mean;
    exec::CompiledStencil(build_riem_precompute(cfg)).run(cat, pre, dom);
    exec::CompiledStencil(build_riem_forward(cfg)).run(cat, {}, dom);
    exec::StencilArgs back;
    back.params["dt"] = dt;
    exec::CompiledStencil(build_riem_backward(cfg)).run(cat, back, dom);
  }
};

TEST(RiemannSolver, SatisfiesTridiagonalSystem) {
  RiemannSetup s;
  // Snapshot coefficients after precompute but before the solve mutates gam.
  exec::StencilArgs pre;
  pre.params["dt"] = s.dt;
  pre.params["cs2"] = grid::kRdGas * s.cfg.t_mean;
  exec::CompiledStencil(build_riem_precompute(s.cfg)).run(s.cat, pre, s.dom);
  FieldD aa("aa0", 6, 6, 12), bb("bb0", 6, 6, 12), cc("cc0", 6, 6, 12), rhs("rhs0", 6, 6, 12);
  aa.copy_from(s.cat.at("aa"));
  bb.copy_from(s.cat.at("bb"));
  cc.copy_from(s.cat.at("cc"));
  rhs.copy_from(s.cat.at("rhs"));
  FieldD w0("w0", 6, 6, 12);
  w0.copy_from(s.cat.at("w"));

  s.run();

  const FieldD& pp = s.cat.at("pp");
  for (int j = 0; j < 6; ++j) {
    for (int i = 0; i < 6; ++i) {
      for (int k = 0; k < 12; ++k) {
        const double up = k > 0 ? pp(i, j, k - 1) : 0.0;
        const double dn = k < 11 ? pp(i, j, k + 1) : 0.0;
        const double lhs = -aa(i, j, k) * up + bb(i, j, k) * pp(i, j, k) - cc(i, j, k) * dn;
        EXPECT_NEAR(lhs, rhs(i, j, k), 1e-9 * (std::abs(rhs(i, j, k)) + 1.0))
            << "column (" << i << "," << j << ") level " << k;
      }
    }
  }
}

TEST(RiemannSolver, ZeroForcingGivesZeroSolution) {
  RiemannSetup s;
  s.cat.at("w").fill(0.0);
  s.run();
  for (int k = 0; k < 12; ++k) EXPECT_NEAR(s.cat.at("pp")(3, 3, k), 0.0, 1e-14);
}

TEST(RiemannSolver, DiagonallyDominantSystemIsStable) {
  RiemannSetup s;
  s.run();
  for (int k = 0; k < 12; ++k) {
    EXPECT_TRUE(std::isfinite(s.cat.at("pp")(2, 4, k)));
    EXPECT_TRUE(std::isfinite(s.cat.at("w")(2, 4, k)));
  }
}

// ---- c_sw regions ----------------------------------------------------------

TEST(CSw, EdgeRegionsDropCosaCorrection) {
  FieldCatalog cat;
  const int n = 8;
  for (const char* name : {"u", "v", "ut", "vt", "uc", "vc"}) cat.create(name, n, n, 2);
  for (const char* name : {"cosa", "sina"}) cat.create(name, n, n, 1);
  cat.at("u").fill(10.0);
  cat.at("v").fill(4.0);
  cat.at("cosa").fill(0.3);
  cat.at("sina").fill(std::sqrt(1 - 0.09));

  exec::CompiledStencil cs(build_c_sw_winds());
  cs.run(cat, exec::LaunchDomain{n, n, 2});  // whole tile: edges present

  const double corrected = (10.0 - 4.0 * 0.3) / std::sqrt(1 - 0.09);
  EXPECT_NEAR(cat.at("ut")(4, 4, 0), corrected, 1e-12);  // interior
  EXPECT_NEAR(cat.at("ut")(4, 0, 0), 10.0, 1e-12);       // j_start edge
  EXPECT_NEAR(cat.at("ut")(4, n - 1, 0), 10.0, 1e-12);   // j_end edge
  EXPECT_NEAR(cat.at("vt")(0, 4, 0), 4.0, 1e-12);        // i_start edge
}

// ---- pressure / gz ---------------------------------------------------------

TEST(Pressure, HydrostaticIntegralMatchesDelp) {
  FvConfig cfg = small_config();
  FieldCatalog cat;
  const int n = 4, nk = cfg.npz;
  cat.create("delp", n, n, nk);
  cat.create("pe", n, n, nk + 1);
  cat.create("pk", n, n, nk + 1);
  cat.create("peln", n, n, nk + 1);
  cat.create("ps", n, n, 1);
  Rng rng(9);
  cat.at("delp").fill_with([&](int, int, int) { return rng.uniform(100.0, 500.0); });

  exec::StencilArgs args;
  args.params["ptop"] = cfg.ptop;
  const exec::LaunchDomain dom{n, n, nk};
  exec::CompiledStencil(build_pe_update(cfg)).run(cat, args, dom);
  exec::CompiledStencil(build_pk_peln(cfg)).run(cat, {}, dom);

  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double sum = cfg.ptop;
      EXPECT_NEAR(cat.at("pe")(i, j, 0), cfg.ptop, 1e-12);
      for (int k = 0; k < nk; ++k) {
        sum += cat.at("delp")(i, j, k);
        EXPECT_NEAR(cat.at("pe")(i, j, k + 1), sum, 1e-9);
      }
      EXPECT_NEAR(cat.at("ps")(i, j, 0), sum, 1e-9);
      EXPECT_NEAR(cat.at("pk")(i, j, nk), std::pow(sum, grid::kKappa), 1e-9);
      EXPECT_NEAR(cat.at("peln")(i, j, nk), std::log(sum), 1e-12);
    }
  }
}

TEST(Pressure, GzIntegratesDelzUpward) {
  FieldCatalog cat;
  const int n = 4, nk = 6;
  cat.create("gz", n, n, nk + 1);
  cat.create("delz", n, n, nk).fill(250.0);
  exec::CompiledStencil(build_gz_update()).run(cat, exec::LaunchDomain{n, n, nk});
  EXPECT_NEAR(cat.at("gz")(2, 2, nk), 0.0, 1e-12);
  EXPECT_NEAR(cat.at("gz")(2, 2, 0), 6 * 250.0 * grid::kGravity, 1e-9);
}

// ---- remap -----------------------------------------------------------------

TEST(Remap, ConservesColumnMassExactly) {
  FvConfig cfg = small_config();
  const int n = 4, nk = cfg.npz;
  grid::Partitioner part(cfg.npx, 1, 1);
  ModelState state(cfg, part, 0);
  init_baroclinic(state, part);

  // Deform delp slightly so the remap has work to do; keep pe consistent.
  Rng rng(17);
  FieldD& delp = state.f("delp");
  FieldD& q0 = state.f("q0");
  for (int j = 0; j < state.domain().nj; ++j)
    for (int i = 0; i < state.domain().ni; ++i) {
      double total = 0;
      for (int k = 0; k < nk; ++k) total += delp(i, j, k);
      // Random positive re-partition of the same column mass.
      std::vector<double> weights(nk);
      double wsum = 0;
      for (auto& w : weights) wsum += (w = rng.uniform(0.5, 1.5));
      for (int k = 0; k < nk; ++k) delp(i, j, k) = total * weights[k] / wsum;
    }
  (void)n;

  // Column tracer mass before.
  std::vector<double> mass_before;
  for (int j = 0; j < state.domain().nj; ++j)
    for (int i = 0; i < state.domain().ni; ++i) {
      double m = 0;
      for (int k = 0; k < nk; ++k) m += q0(i, j, k) * delp(i, j, k);
      mass_before.push_back(m);
    }

  ir::Program prog("remap_only");
  state.register_meta(prog);
  prog.append_state(ir::State{"remap", remap_nodes(cfg, sched::tuned_vertical())});
  prog.execute(state.catalog(), state.domain());

  size_t idx = 0;
  for (int j = 0; j < state.domain().nj; ++j)
    for (int i = 0; i < state.domain().ni; ++i) {
      double m = 0;
      for (int k = 0; k < nk; ++k) m += q0(i, j, k) * delp(i, j, k);
      EXPECT_NEAR(m, mass_before[idx], 1e-9 * std::abs(mass_before[idx]))
          << "column (" << i << "," << j << ")";
      ++idx;
    }
}

TEST(Remap, RestoresReferenceThickness) {
  FvConfig cfg = small_config();
  grid::Partitioner part(cfg.npx, 1, 1);
  ModelState state(cfg, part, 0);
  init_baroclinic(state, part);

  ir::Program prog("remap_only");
  state.register_meta(prog);
  prog.append_state(ir::State{"remap", remap_nodes(cfg, sched::tuned_vertical())});
  prog.execute(state.catalog(), state.domain());

  // After remapping, delp must equal the reference thickness.
  for (int k = 0; k < cfg.npz; ++k) {
    const double ref = state.f("ak")(2, 2, k + 1) + state.f("bk")(2, 2, k + 1) * cfg.p_surf -
                       (state.f("ak")(2, 2, k) + state.f("bk")(2, 2, k) * cfg.p_surf);
    EXPECT_NEAR(state.f("delp")(2, 2, k), ref, 1e-9 * ref);
  }
}

// ---- full dycore integration ----------------------------------------------

TEST(Dycore, ProgramHasExpectedStructure) {
  FvConfig cfg = small_config();
  grid::Partitioner part(cfg.npx, 1, 1);
  ModelState state(cfg, part, 0);
  const ir::Program prog = build_dycore_program(state);
  const ir::ProgramStats stats = prog.stats();
  EXPECT_GT(stats.states, 8);
  EXPECT_GT(stats.stencil_nodes, 20);
  EXPECT_GT(stats.stencil_ops, 80);
  EXPECT_GE(stats.halo_exchanges, 3);
  // The acoustic body repeats k_split * n_split times.
  EXPECT_EQ(stats.max_node_invocations, cfg.k_split * cfg.n_split);
}

// ---- production pass list -------------------------------------------------

/// `pow` sites over every statement of every stencil node.
int pow_sites(const ir::Program& prog) {
  int n = 0;
  for (const auto& st : prog.states()) {
    for (const auto& node : st.nodes) {
      if (node.kind != ir::SNode::Kind::Stencil) continue;
      for (const auto& block : node.stencil->blocks()) {
        for (const auto& iv : block.intervals) {
          for (const auto& stmt : iv.body) n += xform::count_pow(stmt.rhs);
        }
      }
    }
  }
  return n;
}

TEST(ProductionPasses, ModelProgramIsStrengthReducedRawBuilderIsNot) {
  DistributedModel model(small_config(), 6);
  const int raw = pow_sites(build_dycore_program(model.state(0)));
  // The raw builder keeps d_sw's three Smagorinsky sites and pressure's
  // pow(pe, kappa), so the ladder benches still have something to rewrite.
  EXPECT_EQ(raw, 4);
  // The model program loses all three Smagorinsky sites.
  EXPECT_EQ(pow_sites(model.program()), raw - 3);
}

TEST(ProductionPasses, SweProgramHasNothingToRewrite) {
  swe::SweConfig cfg;
  cfg.npx = 12;
  swe::SweModel model(cfg, 6);
  EXPECT_EQ(ir::to_json(model.program()), ir::to_json(swe::build_swe_program(model.state(0))));
}

TEST(ProductionPasses, ListIsTranslationValidatedOnTheDycore) {
  DistributedModel model(small_config(), 6);
  verify::VerifyOptions options;
  options.domains = {model.state(0).domain()};  // fields sized for this tile
  const verify::EquivalenceReport report =
      verify::check_equivalent(build_dycore_program(model.state(0)), model.program(), options);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

TEST(Dycore, SixRankStepStaysFiniteAndConservesMass) {
  FvConfig cfg = small_config();
  DistributedModel model(cfg, 6);
  init_baroclinic(model);

  const GlobalDiagnostics before = model.diagnostics();
  ASSERT_TRUE(before.finite());
  EXPECT_GT(before.total_mass, 0.0);

  for (int step = 0; step < 2; ++step) model.step();

  const GlobalDiagnostics after = model.diagnostics();
  ASSERT_TRUE(after.finite());
  // Winds stay physical (no blow-up).
  EXPECT_LT(after.max_wind, 150.0);
  // Air mass conservation: transport + remap are flux-form; halo fluxes
  // match across ranks, so the global integral moves only by round-off and
  // the (mass-affecting) divergence damping — allow a small drift.
  EXPECT_NEAR(after.total_mass / before.total_mass, 1.0, 5e-3);
}

TEST(Dycore, PerturbationBreaksZonalSymmetry) {
  FvConfig cfg = small_config();
  DistributedModel model(cfg, 6);
  BaroclinicCase pert;
  pert.u_pert = 5.0;
  init_baroclinic(model, pert);
  model.step();
  // The perturbed flow must differ between two longitudes at the same
  // latitude circle (wave development).
  const FieldD& u = model.state(0).f("u");
  double max_dev = 0;
  for (int i = 0; i < model.state(0).domain().ni; ++i) {
    max_dev = std::max(max_dev, std::abs(u(i, 5, 3) - u(0, 5, 3)));
  }
  EXPECT_GT(max_dev, 1e-6);
}

TEST(Dycore, DeterministicAcrossRuns) {
  FvConfig cfg = small_config();
  auto run_once = [&] {
    DistributedModel model(cfg, 6);
    init_baroclinic(model);
    model.step();
    return model.diagnostics();
  };
  const GlobalDiagnostics a = run_once();
  const GlobalDiagnostics b = run_once();
  EXPECT_EQ(a.total_mass, b.total_mass);
  EXPECT_EQ(a.max_wind, b.max_wind);
  EXPECT_EQ(a.mean_pt, b.mean_pt);
}

TEST(Dycore, TwentyFourRanksMatchSixRanks) {
  // Domain decomposition must not change the physics: the same global grid
  // split 6 ways vs 24 ways gives the same global diagnostics (up to
  // round-off from summation order).
  FvConfig cfg = small_config();
  cfg.npx = 12;

  DistributedModel m6(cfg, 6);
  init_baroclinic(m6);
  m6.step();
  DistributedModel m24(cfg, 24);
  init_baroclinic(m24);
  m24.step();

  const GlobalDiagnostics d6 = m6.diagnostics();
  const GlobalDiagnostics d24 = m24.diagnostics();
  EXPECT_NEAR(d6.total_mass, d24.total_mass, 1e-6 * d6.total_mass);
  EXPECT_NEAR(d6.max_wind, d24.max_wind, 1e-6 * (d6.max_wind + 1));
  EXPECT_NEAR(d6.mean_pt, d24.mean_pt, 1e-6 * d6.mean_pt);
}

}  // namespace
}  // namespace cyclone::fv3

namespace cyclone::fv3 {
namespace {

TEST(Advection, SolidBodyTracerStaysBoundedAndConserved) {
  // Pure advection test: solid-body rotation carries a tracer blob across
  // tile edges; the monotone transport must keep it within [0, 1] and
  // conserve its global mass (flux-form with matching face fluxes).
  FvConfig cfg;
  cfg.npx = 16;
  cfg.npz = 4;
  cfg.k_split = 1;
  cfg.n_split = 1;
  cfg.ntracers = 1;
  cfg.dt = 1200.0;
  cfg.do_smagorinsky = false;
  cfg.divergence_damp = 0.0;
  cfg.do_riem_solver3 = false;

  DistributedModel model(cfg, 6);
  for (int r = 0; r < 6; ++r) init_solid_body(model.state(r), model.partitioner(), 30.0);
  model.exchange_prognostics();

  const GlobalDiagnostics before = model.diagnostics();
  for (int s = 0; s < 6; ++s) model.step();
  const GlobalDiagnostics after = model.diagnostics();

  ASSERT_TRUE(after.finite());
  // Tracer mass stays near-conserved (mass-weighted transport + exactly
  // telescoping remap; residual drift comes from the approximate
  // cube-corner halo fill).
  EXPECT_NEAR(after.tracer_mass_q0 / before.tracer_mass_q0, 1.0, 4e-2);
  // Boundedness: positivity is guaranteed (limiter + fillz); mild
  // overshoot (tens of percent at worst) is localized at cube corners,
  // where the transpose corner fill only approximates the true diagonal
  // neighbor — FV3 invests dedicated one-sided corner operators here.
  for (int r = 0; r < 6; ++r) {
    const FieldD& q = model.state(r).f("q0");
    const auto& dom = model.state(r).domain();
    for (int k = 0; k < dom.nk; ++k)
      for (int j = 0; j < dom.nj; ++j)
        for (int i = 0; i < dom.ni; ++i) {
          EXPECT_GE(q(i, j, k), -1e-9);
          EXPECT_LE(q(i, j, k), 1.35);
        }
  }
}

TEST(Advection, BlobActuallyMoves) {
  FvConfig cfg;
  cfg.npx = 16;
  cfg.npz = 4;
  cfg.k_split = 1;
  cfg.n_split = 1;
  cfg.ntracers = 1;
  cfg.dt = 1800.0;

  DistributedModel model(cfg, 6);
  for (int r = 0; r < 6; ++r) init_solid_body(model.state(r), model.partitioner(), 40.0);
  model.exchange_prognostics();

  // Locate the blob's center of mass (on tile 0, where it starts).
  auto center_i = [&] {
    const FieldD& q = model.state(0).f("q0");
    double wsum = 0, isum = 0;
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 16; ++i) {
        wsum += q(i, j, 0);
        isum += q(i, j, 0) * i;
      }
    return wsum > 0 ? isum / wsum : -1.0;
  };
  const double i_before = center_i();
  for (int s = 0; s < 4; ++s) model.step();
  const double i_after = center_i();
  // Eastward flow moves the blob toward +i on the equatorial tile.
  EXPECT_GT(i_after, i_before + 0.1);
}

TEST(Config, ValidationCatchesBadSetups) {
  FvConfig cfg;
  cfg.npz = 1;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = FvConfig{};
  cfg.k_split = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = FvConfig{};
  cfg.hydrostatic = true;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = FvConfig{};
  cfg.dt = -1;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = FvConfig{};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Dycore, LongerRunRemainsStable) {
  FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = 2;
  cfg.dt = 300.0;
  DistributedModel model(cfg, 6);
  init_baroclinic(model);
  for (int s = 0; s < 8; ++s) model.step();
  const GlobalDiagnostics d = model.diagnostics();
  ASSERT_TRUE(d.finite());
  EXPECT_LT(d.max_wind, 200.0);
  EXPECT_GT(d.mean_pt, 150.0);
  EXPECT_LT(d.mean_pt, 350.0);
}

}  // namespace
}  // namespace cyclone::fv3
