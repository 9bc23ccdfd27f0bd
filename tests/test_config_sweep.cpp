// Parameterized property sweep over dycore configurations: every
// combination must (a) run stably, (b) conserve air mass to tolerance, and
// (c) remain decomposition-independent between 6 and 24 ranks. This is the
// "any configuration of multiple subdomains" testing the paper's Sec. IV-A
// standard partitioner enables.

#include <gtest/gtest.h>

#include "core/util/strings.hpp"
#include "fv3/driver.hpp"
#include "fv3/init/baroclinic.hpp"

namespace cyclone::fv3 {
namespace {

struct SweepCase {
  int npx;
  int npz;
  int k_split;
  int n_split;
  int ntracers;
  int nord;
  bool riem3;
};

class DycoreSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DycoreSweep, StableConservativeDecompositionIndependent) {
  const SweepCase& c = GetParam();
  FvConfig cfg;
  cfg.npx = c.npx;
  cfg.npz = c.npz;
  cfg.k_split = c.k_split;
  cfg.n_split = c.n_split;
  cfg.ntracers = c.ntracers;
  cfg.nord = c.nord;
  cfg.do_riem_solver3 = c.riem3;
  cfg.dt = 300.0;

  DistributedModel m6(cfg, 6);
  init_baroclinic(m6);
  const GlobalDiagnostics before = m6.diagnostics();
  m6.step();
  const GlobalDiagnostics after = m6.diagnostics();

  ASSERT_TRUE(after.finite());
  EXPECT_LT(after.max_wind, 150.0);
  EXPECT_NEAR(after.total_mass / before.total_mass, 1.0, 5e-3);

  DistributedModel m24(cfg, 24);
  init_baroclinic(m24);
  m24.step();
  const GlobalDiagnostics d24 = m24.diagnostics();
  EXPECT_NEAR(after.total_mass, d24.total_mass, 1e-6 * after.total_mass);
  EXPECT_NEAR(after.max_wind, d24.max_wind, 1e-6 * (after.max_wind + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DycoreSweep,
    ::testing::Values(SweepCase{12, 8, 1, 2, 2, 1, true},   // default-ish
                      SweepCase{12, 8, 2, 1, 2, 1, true},   // remap-heavy
                      SweepCase{12, 6, 1, 3, 0, 1, true},   // no tracers
                      SweepCase{12, 8, 1, 2, 2, 0, true},   // nord = 0
                      SweepCase{12, 8, 1, 2, 2, 1, false},  // no riem3
                      SweepCase{24, 4, 1, 1, 1, 1, true},   // wide & shallow
                      SweepCase{12, 16, 1, 1, 1, 1, true}), // deep
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const auto& c = info.param;
      return str::numbered("c", c.npx) + str::numbered("z", c.npz) +
             str::numbered("k", c.k_split) + str::numbered("n", c.n_split) +
             str::numbered("t", c.ntracers) + str::numbered("nord", c.nord) +
             (c.riem3 ? "r3" : "r1");
    });

}  // namespace
}  // namespace cyclone::fv3
