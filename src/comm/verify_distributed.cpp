#include "comm/verify_distributed.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <string>

#include "comm/elastic.hpp"
#include "comm/simcomm.hpp"
#include "core/dsl/builder.hpp"
#include "core/util/rng.hpp"

namespace cyclone::verify {

std::vector<FieldCatalog> seeded_catalogs(const ir::Program& program,
                                          const std::vector<exec::LaunchDomain>& doms,
                                          uint64_t seed) {
  std::vector<FieldCatalog> cats;
  cats.reserve(doms.size());
  for (size_t r = 0; r < doms.size(); ++r) {
    cats.push_back(make_test_catalog(program, program, doms[r], Rng::mix(seed, r)));
  }
  return cats;
}

DomainResult compare_ranks_bitwise(const std::vector<comm::RankDomain>& ref,
                                   const std::vector<comm::RankDomain>& got,
                                   const std::string& prefix,
                                   const std::vector<std::string>& names) {
  CY_REQUIRE_MSG(ref.size() == got.size(), "compare_ranks_bitwise: " << ref.size() << " vs "
                                                                      << got.size() << " ranks");
  DomainResult dr;
  if (!ref.empty()) dr.dom = ref[0].dom;
  FieldDivergence witness;
  for (size_t r = 0; r < ref.size(); ++r) {
    const std::string tag = ref.size() > 1 ? prefix + "r" + std::to_string(r) + "/" : prefix;
    for (const auto& name : names.empty() ? ref[r].catalog->names() : names) {
      FieldDivergence d =
          compare_fields_bitwise(tag + name, ref[r].catalog->at(name), got[r].catalog->at(name));
      if (!d.ok) {
        dr.fields.push_back(std::move(d));
      } else if (witness.field.empty()) {
        witness = std::move(d);
      }
    }
  }
  dr.ok = dr.fields.empty();
  if (dr.ok && !witness.field.empty()) dr.fields.push_back(std::move(witness));
  return dr;
}

// ---- Test programs ------------------------------------------------------------

ir::Program make_diffusion_program() {
  using dsl::E;
  ir::Program p("diffusion");
  p.append_state(ir::State{"hx", {ir::SNode::make_halo_exchange("hx.q", {"q"}, 3)}});
  dsl::StencilBuilder b("diffuse");
  auto q = b.field("q");
  auto lap = b.field("lap");
  auto out = b.field("out");
  b.parallel().full().assign(lap, q(1, 0) + q(-1, 0) + q(0, 1) + q(0, -1) - E(q) * 4.0);
  b.parallel().full().assign(
      out, E(q) + (lap(1, 0) + lap(-1, 0) + lap(0, 1) + lap(0, -1) - E(lap) * 4.0) * 0.1);
  p.append_state(ir::State{"compute", {ir::SNode::make_stencil("diffuse", b.build())}});
  return p;
}

ir::Program make_vector_program() {
  ir::Program p("vector");
  p.append_state(
      ir::State{"hx", {ir::SNode::make_halo_exchange("hx.uv", {"u", "v"}, 3, true)}});
  dsl::StencilBuilder b("div");
  auto u = b.field("u");
  auto v = b.field("v");
  auto d = b.field("d");
  b.parallel().full().assign(d, u(1, 0) - u(-1, 0) + v(0, 1) - v(0, -1));
  p.append_state(ir::State{"compute", {ir::SNode::make_stencil("div", b.build())}});
  return p;
}

ir::Program make_elastic_program(int trips) {
  using dsl::E;
  ir::Program p("elastic-diffusion");
  const int hx = p.add_state(ir::State{"hx", {ir::SNode::make_halo_exchange("hx.q", {"q"}, 3)}});
  dsl::StencilBuilder b("diffuse");
  auto q = b.field("q");
  auto lap = b.field("lap");
  auto out = b.field("out");
  b.parallel().full().assign(lap, q(1, 0) + q(-1, 0) + q(0, 1) + q(0, -1) - E(q) * 4.0);
  b.parallel().full().assign(
      out, E(q) + (lap(1, 0) + lap(-1, 0) + lap(0, 1) + lap(0, -1) - E(lap) * 4.0) * 0.1);
  const int cm =
      p.add_state(ir::State{"compute", {ir::SNode::make_stencil("diffuse", b.build())}});
  dsl::StencilBuilder c("commit");
  auto q2 = c.field("q");
  auto out2 = c.field("out");
  c.parallel().full().assign(q2, E(out2));
  const int cp = p.add_state(ir::State{"commit", {ir::SNode::make_stencil("commit", c.build())}});
  p.control_flow().children.push_back(ir::CFNode::loop(
      "it", trips,
      {ir::CFNode::state_ref(hx), ir::CFNode::state_ref(cm), ir::CFNode::state_ref(cp)}));
  return p;
}

namespace {

/// A field-by-field copy (FieldCatalog is move-only; copy_from also reads
/// through arena-backed views).
FieldCatalog clone(const FieldCatalog& src) {
  FieldCatalog out;
  for (const auto& name : src.names()) {
    out.create(name, src.at(name).shape()).copy_from(src.at(name));
  }
  return out;
}

/// What every check shares: the decomposition, the pristine starting
/// catalogs, and the lockstep reference run `steps` passes from them.
/// `data_seed` fills the default starting state and is logged in reports.
struct Harness {
  const ir::Program& program;
  uint64_t data_seed;
  int steps;
  std::vector<exec::LaunchDomain> doms;
  comm::HaloUpdater halo;
  std::vector<FieldCatalog> start;
  std::vector<FieldCatalog> ref_cats;
  std::vector<comm::RankDomain> ref;
  comm::SimComm sim;

  Harness(const ir::Program& program, const grid::Partitioner& part, int nk, int halo_width,
          uint64_t data_seed, const std::vector<comm::RankDomain>& start_ranks, int steps)
      : program(program),
        data_seed(data_seed),
        steps(steps),
        doms(comm::launch_domains(part, nk)),
        halo(part, halo_width),
        sim(part.num_ranks()) {
    if (start_ranks.empty()) {
      start = seeded_catalogs(program, doms, data_seed);
    } else {
      CY_REQUIRE_MSG(start_ranks.size() == doms.size(),
                     "starting state has " << start_ranks.size() << " ranks, the partitioner "
                                           << doms.size());
      for (const auto& rd : start_ranks) start.push_back(clone(*rd.catalog));
    }
    for (const auto& cat : start) ref_cats.push_back(clone(cat));
    ref = comm::bind_ranks(ref_cats, doms);
    for (int s = 0; s < steps; ++s) comm::run_lockstep_step(program, halo, ref, sim);
  }
};

/// The owned cells of every field of `ranks` as one roster-independent
/// catalog in assemble_owned's global order: field (gi, gj, tile * nk + k),
/// no halos.
FieldCatalog owned_catalog(const grid::Partitioner& part,
                           const std::vector<comm::RankDomain>& ranks) {
  FieldCatalog out;
  const int n = part.n();
  for (const auto& name : ranks.at(0).catalog->names()) {
    const std::vector<double> global = comm::assemble_owned(part, ranks, name);
    const int planes = static_cast<int>(global.size() / (static_cast<size_t>(n) * n));
    FieldD& f = out.create(name, FieldShape(n, n, planes, HaloSpec{0, 0}));
    size_t at = 0;
    for (int k = 0; k < planes; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) f(i, j, k) = global[at++];
      }
    }
  }
  return out;
}

/// One run of a plan sweep.
struct Cell {
  comm::RuntimeOptions runtime;  ///< faults and recovery included
  bool rebuild = false;          ///< needs a runtime built with these options
  uint64_t seed = 0;             ///< logged as the DomainResult's fill_seed
  std::string what;              ///< names the cell in errors
};

/// The one plan sweep: every cell restarts the subject ranks from the
/// pristine starting state, runs `h.steps` steps on the concurrent runtime
/// and must (a) complete, (b) match the lockstep reference bitwise, (c)
/// send exactly the reference's messages and bytes unless it rolled back,
/// and (d) return every halo staging buffer to its pool. A runtime is reused
/// across cells until one asks for a rebuild (per-rank program copies are
/// costly to make).
EquivalenceReport sweep(
    const Harness& h, const std::vector<Cell>& cells,
    const std::function<std::unique_ptr<comm::CheckpointStore>()>& make_store = {}) {
  EquivalenceReport report;
  report.data_seed = h.data_seed;
  std::vector<FieldCatalog> cats;
  for (const auto& cat : h.start) cats.push_back(clone(cat));
  const std::vector<comm::RankDomain> ranks = comm::bind_ranks(cats, h.doms);
  std::unique_ptr<comm::ConcurrentRuntime> rt;
  for (const Cell& cell : cells) {
    DomainResult dr;
    try {
      for (size_t r = 0; r < cats.size(); ++r) {
        for (const auto& name : h.start[r].names()) {
          cats[r].at(name).copy_from(h.start[r].at(name));
        }
      }
      if (!rt || cell.rebuild) {
        rt = std::make_unique<comm::ConcurrentRuntime>(h.program, h.halo, ranks, cell.runtime);
      }
      std::unique_ptr<comm::CheckpointStore> store;
      comm::RecoveryOptions rec = cell.runtime.recovery;
      if (rec.enabled && make_store) {
        store = make_store();
        rec.store = store.get();
      }
      rt->set_fault_options(cell.runtime.faults, rec);
      rt->comm().reset_counters();
      const comm::RunReport rr = rt->run(h.steps);
      if (!rr.ok) {
        dr.ok = false;
        dr.error = cell.what + " did not complete: " + rr.failure;
      } else {
        dr = compare_ranks_bitwise(h.ref, ranks);
        std::ostringstream os;
        if (!dr.ok) {
          os << "diverges from the lockstep reference under " << cell.what;
        } else if (rr.restarts == 0 && (rt->comm().total_messages() != h.sim.total_messages() ||
                                        rt->comm().total_bytes() != h.sim.total_bytes())) {
          os << "channel counters diverge from lockstep reference under " << cell.what
             << ": messages " << rt->comm().total_messages() << " vs " << h.sim.total_messages()
             << ", bytes " << rt->comm().total_bytes() << " vs " << h.sim.total_bytes();
        } else if (rt->halo().pool_outstanding() != 0) {
          os << "halo pool leak under " << cell.what << ": " << rt->halo().pool_outstanding()
             << " buffers outstanding after drain";
        }
        dr.error = os.str();
        dr.ok = dr.error.empty();
      }
    } catch (const std::exception& e) {
      dr.ok = false;
      dr.error = cell.what + ": " + e.what();
    }
    dr.dom = h.doms[0];
    dr.fill_seed = cell.seed;
    report.equivalent = report.equivalent && dr.ok;
    report.domains.push_back(std::move(dr));
  }
  return report;
}

}  // namespace

FieldCatalog lockstep_owned(const ir::Program& program, const grid::Partitioner& part, int nk,
                            int halo_width, uint64_t seed, int steps) {
  const Harness h(program, part, nk, halo_width, seed, {}, steps);
  return owned_catalog(part, h.ref);
}

DomainResult compare_owned(const FieldCatalog& ref, const grid::Partitioner& part,
                           const std::vector<comm::RankDomain>& ranks,
                           const std::string& prefix) {
  FieldCatalog got = owned_catalog(part, ranks);
  // compare_ranks_bitwise only reads through the catalog pointers.
  return compare_ranks_bitwise({{const_cast<FieldCatalog*>(&ref), {}}}, {{&got, {}}}, prefix);
}

EquivalenceReport check_distributed_agrees(const ir::Program& program,
                                           const grid::Partitioner& part, int nk,
                                           int halo_width,
                                           const DistributedVerifyOptions& options,
                                           const std::vector<comm::RankDomain>& start) {
  const Harness h(program, part, nk, halo_width, options.data_seed, start, options.steps);
  std::vector<Cell> cells;
  for (const int budget : options.thread_budgets) {
    for (const bool overlap : {true, false}) {
      for (int rep = 0; rep < options.repetitions; ++rep) {
        Cell cell;
        cell.rebuild = true;
        cell.seed = Rng::mix(options.data_seed ^ 0xA221117ull, cells.size());
        cell.runtime.overlap = overlap;
        cell.runtime.run = program.run_options();
        cell.runtime.run.threads_per_rank = budget;
        cell.runtime.channel.recv_timeout_seconds = options.recv_timeout_seconds;
        cell.runtime.channel.arrival_jitter_seed = cell.seed;
        cell.what = "threads_per_rank=" + std::to_string(budget) +
                    " overlap=" + (overlap ? "on" : "off") + " rep=" + std::to_string(rep);
        cells.push_back(std::move(cell));
      }
    }
  }
  return sweep(h, cells);
}

const char* fault_mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::Drop: return "drop";
    case FaultMode::Duplicate: return "duplicate";
    case FaultMode::Reorder: return "reorder";
    case FaultMode::Corrupt: return "corrupt";
    case FaultMode::Delay: return "delay";
    case FaultMode::Crash: return "crash";
    case FaultMode::Hang: return "hang";
  }
  return "?";
}

FaultMode parse_fault_mode(const std::string& name) {
  for (const FaultMode m : {FaultMode::Drop, FaultMode::Duplicate, FaultMode::Reorder,
                            FaultMode::Corrupt, FaultMode::Delay, FaultMode::Crash,
                            FaultMode::Hang}) {
    if (name == fault_mode_name(m)) return m;
  }
  CY_REQUIRE_MSG(false, "unknown fault mode '" << name
                                               << "' (want drop/duplicate/reorder/corrupt/"
                                                  "delay/crash/hang)");
  return FaultMode::Drop;  // unreachable
}

comm::FaultPlan make_chaos_plan(FaultMode mode, uint64_t fault_seed, double rate, int steps,
                                int crash_rank, int crash_step, int nranks, size_t order_len) {
  comm::FaultPlan plan;
  plan.seed = fault_seed;
  switch (mode) {
    case FaultMode::Drop: plan.drop_rate = rate; break;
    case FaultMode::Duplicate: plan.duplicate_rate = rate; break;
    case FaultMode::Reorder: plan.reorder_rate = rate; break;
    case FaultMode::Corrupt: plan.corrupt_rate = rate; break;
    case FaultMode::Delay: plan.delay_rate = rate; break;
    case FaultMode::Crash:
    case FaultMode::Hang: {
      plan.failure = mode == FaultMode::Crash ? comm::FaultPlan::Failure::Crash
                                              : comm::FaultPlan::Failure::Hang;
      Rng rng = Rng::derive(fault_seed, 0x0DDull);
      plan.fail_rank = crash_rank >= 0
                           ? crash_rank
                           : static_cast<int>(rng.next_below(static_cast<uint64_t>(nranks)));
      plan.fail_step =
          crash_step >= 0
              ? crash_step
              : static_cast<long>(rng.next_below(static_cast<uint64_t>(std::max(steps, 1))));
      plan.fail_at_state = static_cast<int>(rng.next_below(order_len ? order_len : 1));
      break;
    }
  }
  return plan;
}

EquivalenceReport check_fault_tolerant(const ir::Program& program,
                                       const grid::Partitioner& part, int nk, int halo_width,
                                       const FaultToleranceOptions& options,
                                       const std::vector<comm::RankDomain>& start) {
  const Harness h(program, part, nk, halo_width, options.data_seed, start, options.steps);
  const size_t order_len = program.flatten_execution_order().size();
  std::vector<Cell> cells;
  for (const FaultMode mode : options.modes) {
    for (int s = 0; s < options.seeds_per_mode; ++s) {
      Cell cell;
      cell.seed = Rng::mix(options.fault_seed_base, cells.size());
      cell.runtime.run = program.run_options();
      cell.runtime.run.threads_per_rank = 1;
      cell.runtime.channel.recv_timeout_seconds = options.recv_timeout_seconds;
      cell.runtime.faults =
          make_chaos_plan(mode, cell.seed, options.rate, options.steps, options.crash_rank,
                          options.crash_step, part.num_ranks(), order_len);
      cell.runtime.recovery.enabled = true;
      if (mode == FaultMode::Hang) {
        cell.runtime.recovery.heartbeat_timeout_seconds = options.hang_heartbeat_seconds;
      }
      cell.what = std::string(fault_mode_name(mode)) + " plan [" +
                  comm::describe_plan(cell.runtime.faults) + "]";
      cells.push_back(std::move(cell));
    }
  }
  return sweep(h, cells, options.checkpoint_store);
}

}  // namespace cyclone::verify
