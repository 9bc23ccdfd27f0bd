// Rank-parallel lockstep compute: a compute state runs its (instance, rank)
// sides on the halo team, with shared executors and
// one temporary arena per thread. Every result must be bitwise the same as
// at a team of one and as the reference interpreter.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "comm/verify_distributed.hpp"
#include "core/dsl/builder.hpp"
#include "ensemble/ensemble.hpp"
#include "ensemble/perturb.hpp"
#include "fv3/driver.hpp"
#include "swe/driver.hpp"

namespace cyclone::comm {
namespace {

using dsl::E;
using dsl::StencilBuilder;

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

swe::SweConfig small_swe() {
  swe::SweConfig cfg;
  cfg.npx = 24;
  cfg.ntracers = 2;
  return cfg;
}

exec::RunOptions run_on(exec::ExecBackend backend, int team) {
  exec::RunOptions run;
  run.backend = backend;
  run.num_threads = team;
  return run;
}

/// A model of `cfg` on `ranks` ranks, initialised with `ic` and stepped
/// `steps` times through the lockstep scheduler under `run`.
template <class Model, class Config>
std::unique_ptr<Model> stepped(const Config& cfg, int ranks, const std::string& ic,
                               const exec::RunOptions& run, int steps) {
  auto model = std::make_unique<Model>(cfg, ranks);
  ensemble::apply_initial_condition(*model, ic);
  model->set_run_options(run);
  for (int s = 0; s < steps; ++s) model->step();
  return model;
}

/// Every field of every rank bitwise equal, and the same halo traffic.
void expect_same(fv3::ModelDriver& got, fv3::ModelDriver& want, const std::string& what) {
  const verify::DomainResult dr = verify::compare_ranks_bitwise(want.rank_domains(),
                                                                got.rank_domains());
  EXPECT_TRUE(dr.ok) << what << ": "
                     << verify::EquivalenceReport{false, 0, {dr}}.first_failure();
  EXPECT_EQ(got.comm().total_messages(), want.comm().total_messages()) << what;
  EXPECT_EQ(got.comm().total_bytes(), want.comm().total_bytes()) << what;
  EXPECT_TRUE(got.comm().all_drained()) << what;
}

template <class Model, class Config>
void check_teams(const Config& cfg, int ranks, const std::string& ic) {
  const int steps = 2;
  auto oracle =
      stepped<Model>(cfg, ranks, ic, run_on(exec::ExecBackend::Interpreter, 1), steps);
  auto serial = stepped<Model>(cfg, ranks, ic, run_on(exec::ExecBackend::OpenMP, 1), steps);
  expect_same(*serial, *oracle, "team 1 vs interpreter");
  for (const int team : {2, 3, 7}) {
    auto got = stepped<Model>(cfg, ranks, ic, run_on(exec::ExecBackend::OpenMP, team), steps);
    const std::string what = std::to_string(ranks) + " ranks, team " + std::to_string(team);
    expect_same(*got, *serial, what + " vs team 1");
    expect_same(*got, *oracle, what + " vs interpreter");
  }
}

TEST(Lockstep, RankParallelMatchesSerial) {
  // Dycore at 6 and 24 ranks (12x12x4 per rank on 6, 6x6x4 on 24) and SWE
  // at 24x24 per rank on 6: every stencil-only state forks at teams > 1.
  check_teams<fv3::DistributedModel>(small_dycore(), 6, "baro");
  check_teams<fv3::DistributedModel>(small_dycore(), 24, "baro");
  check_teams<swe::SweModel>(small_swe(), 6, "hill");
}

TEST(Lockstep, RankParallelBatchedEnsembleMatchesSerial) {
  // Three batched members: each compute state runs every (member, rank)
  // side on the team. Each member must match its team-1 batch and the
  // interpreter bit for bit, with the same halo traffic.
  const auto run_batch = [](const exec::RunOptions& run) {
    ensemble::EnsembleOptions opts;
    opts.members = ensemble::default_members(0xBA7C, 3);
    opts.run = run;
    auto runner = std::make_unique<ensemble::DycoreEnsemble>(small_dycore(), opts);
    runner->init("baro");
    runner->run(2);
    return runner;
  };
  auto oracle = run_batch(run_on(exec::ExecBackend::Interpreter, 1));
  auto serial = run_batch(run_on(exec::ExecBackend::OpenMP, 1));
  for (const int team : {1, 2, 3, 7}) {
    auto got = run_batch(run_on(exec::ExecBackend::OpenMP, team));
    for (int m = 0; m < 3; ++m) {
      const std::string what = "member " + std::to_string(m) + ", team " + std::to_string(team);
      expect_same(got->member(m), serial->member(m), what + " vs team 1");
      expect_same(got->member(m), oracle->member(m), what + " vs interpreter");
    }
  }
}

TEST(Lockstep, RankParallelJitMatchesSerial) {
  // The Jit backend shares one JitProgram across the team's threads (its
  // host tables are per thread).
  const fv3::FvConfig cfg = small_dycore();
  auto serial =
      stepped<fv3::DistributedModel>(cfg, 24, "baro", run_on(exec::ExecBackend::OpenMP, 1), 2);
  auto got = stepped<fv3::DistributedModel>(cfg, 24, "baro", run_on(exec::ExecBackend::Jit, 3), 2);
  expect_same(*got, *serial, "jit team 3 vs openmp team 1");
}

TEST(Lockstep, CallbackStateSeesRanksInOrder) {
  // A state with a Callback node never forks: the callback observes the
  // ranks in ascending order on every step. The stencil-only state next to
  // it forks.
  const grid::Partitioner part = grid::Partitioner::for_ranks(24, 24);
  const int nk = 16;  // 24 ranks x 12x12x16 = 55k points per launch
  StencilBuilder b("smooth");
  auto q = b.field("q");
  auto t = b.temp("t");
  b.parallel().full().assign(t, q(1, 0) + q(-1, 0)).assign(q, E(t) * 0.5 + E(q) * 0.25);
  const dsl::StencilFunc smooth = b.build();

  std::vector<FieldCatalog> cats(static_cast<size_t>(part.num_ranks()));
  for (auto& cat : cats) {
    cat.create("q", part.info(0).ni, part.info(0).nj, nk, HaloSpec{3, 3}).fill(1.0);
  }
  std::map<const FieldCatalog*, int> rank_of;
  for (size_t r = 0; r < cats.size(); ++r) rank_of[&cats[r]] = static_cast<int>(r);
  std::vector<int> seen;

  ir::Program program("callback_order");
  program.append_state(ir::State{
      "observed",
      {ir::SNode::make_stencil("smooth", smooth),
       ir::SNode::make_callback("record", [&](FieldCatalog& cat) {
         seen.push_back(rank_of.at(&cat));
       })}});
  program.append_state(ir::State{"plain", {ir::SNode::make_stencil("smooth2", smooth)}});
  program.set_run_options(run_on(exec::ExecBackend::OpenMP, 3));

  std::vector<RankDomain> ranks = bind_ranks(cats, launch_domains(part, nk));
  HaloUpdater halo(part, 3);
  halo.set_num_threads(3);
  SimComm comm(part.num_ranks());
  for (int step = 0; step < 3; ++step) run_lockstep_step(program, halo, ranks, comm);

  std::vector<int> want;
  for (int step = 0; step < 3; ++step) {
    for (int r = 0; r < part.num_ranks(); ++r) want.push_back(r);
  }
  EXPECT_EQ(seen, want);
}

TEST(SimComm, MailboxesOutliveTheirMessages) {
  // Tags are fixed, so the mailboxes of the first steps serve every later
  // step: a third dycore step leaves the mailbox count where it was.
  fv3::DistributedModel model(small_dycore(), 6);
  ensemble::apply_initial_condition(model, "baro");
  model.step();
  model.step();
  EXPECT_TRUE(model.comm().pending().empty());
  const size_t mailboxes = model.comm().mailbox_count();
  EXPECT_GT(mailboxes, 0u);
  const long messages = model.comm().total_messages();
  model.step();
  EXPECT_GT(model.comm().total_messages(), messages);
  EXPECT_TRUE(model.comm().pending().empty());
  EXPECT_EQ(model.comm().mailbox_count(), mailboxes);
}

}  // namespace
}  // namespace cyclone::comm
