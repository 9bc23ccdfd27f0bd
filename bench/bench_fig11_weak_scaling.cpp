// Fig. 11 reproduction: weak scaling of the full dycore, 192x192x80 points
// per node, from 54 to 2,400 nodes. Per-node compute time comes from the
// machine model on the tuned whole-program IR (with the per-rank region
// specialization the placement implies); communication time comes from the
// cubed-sphere halo updater's message statistics under an Aries-like
// alpha-beta network model. The A100 portability point (Sec. IX-B) closes
// the figure.

#include "bench_common.hpp"
#include "comm/elastic.hpp"
#include "comm/halo.hpp"
#include "comm/runtime.hpp"
#include "comm/verify_distributed.hpp"
#include "core/dsl/builder.hpp"
#include "core/xform/passes.hpp"
#include "fv3/driver.hpp"
#include "fv3/init/baroclinic.hpp"

using namespace cyclone;

namespace {

/// Fully tuned program for a rank with the given placement.
double tuned_step_time(const fv3::ModelState& state, const exec::LaunchDomain& dom,
                       const perf::MachineSpec& machine) {
  ir::Program prog = fv3::build_dycore_program(state, fv3::DycoreSchedules::tuned());
  tune::TuningOptions topt;
  topt.dom = dom;
  topt.machine = machine;
  xform::set_vertical_cache(prog, sched::CacheKind::Registers);
  xform::strength_reduce_program(prog);
  xform::set_region_strategy(prog, sched::RegionStrategy::SeparateKernels);
  xform::prune_regions(prog, dom);  // interior ranks drop edge specializations
  return perf::model_program(ir::expand_program(prog, dom), machine);
}

/// Per-step communication time of the busiest rank: halo cells and message
/// counts from a representative partitioner, exchange count from the
/// program's halo states.
double comm_time_per_step(const fv3::FvConfig& cfg, int ranks_per_tile) {
  // Per-rank comm volume is independent of the global node count in weak
  // scaling; measure it on a small partitioner with the same per-rank
  // domain.
  const int side = std::max(1, static_cast<int>(std::lround(std::sqrt(ranks_per_tile))));
  const grid::Partitioner part(cfg.npx * side, side, side);
  const comm::HaloUpdater updater(part, 3);
  long worst_cells = 0, worst_msgs = 0;
  for (int r = 0; r < part.num_ranks(); ++r) {
    worst_cells = std::max(worst_cells, updater.cells_sent_per_rank(r));
    worst_msgs = std::max(worst_msgs, updater.messages_per_rank(r));
  }
  // Exchanges per physics step: fields x width-3 ring x nk levels. Count
  // scalar-equivalent exchanges from the dycore structure: per acoustic
  // iteration 2 (uv) + 4 scalars + pp + uv + w; plus tracers and nothing
  // for remap.
  const int acoustic = cfg.k_split * cfg.n_split;
  const long scalar_exchanges =
      static_cast<long>(acoustic) * (2 + 4 + 1 + 2 + 1) +
      cfg.k_split * (cfg.ntracers + 1);  // tracers + delp
  const double bytes_per_exchange = static_cast<double>(worst_cells) * cfg.npz * 8.0;
  comm::NetworkModel net;
  return net.time(worst_msgs * scalar_exchanges,
                  static_cast<long>(bytes_per_exchange * scalar_exchanges));
}

/// Measured per-step wall time of the real distributed dycore under one of
/// the schedulers. Concurrent runs simulate interconnect latency on every
/// message (scaled alpha-beta model); lockstep runs exchange through the
/// in-process mailboxes.
Timing measured_step_seconds(const fv3::FvConfig& cfg, int ranks, bool concurrent,
                             double net_scale) {
  fv3::DistributedModel model(cfg, ranks);
  exec::RunOptions run;
  run.threads_per_rank = 1;  // one hardware thread per rank
  model.set_run_options(run);
  if (concurrent) {
    model.set_exec_mode(fv3::DistributedModel::ExecMode::Concurrent);
    comm::RuntimeOptions ro;
    ro.channel.recv_timeout_seconds = bench::recv_timeout_seconds();
    ro.channel.simulate_network = true;
    ro.channel.network_time_scale = net_scale;
    model.set_runtime_options(ro);
  }
  fv3::init_baroclinic(model);
  // The warm-up step builds the runtime and all compiled stencils.
  return time_reps(bench::kReps, [&] { model.step(); });
}

/// "median [min, max]" of a timing.
std::string with_range(const Timing& t) {
  return str::human_time(t.median) + " [" + str::human_time(t.min) + ", " +
         str::human_time(t.max) + "]";
}

/// A halo-diffusion chain: `trips` iterations of exchange(q) -> lap/out
/// stencils -> q = out. The fault-tolerance and elastic rows run it.
ir::Program diffusion_chain(int trips) {
  ir::Program p("diffusion-chain");
  const int hx = p.add_state(ir::State{"hx", {ir::SNode::make_halo_exchange("hx.q", {"q"}, 3)}});
  dsl::StencilBuilder b("diffuse");
  auto q = b.field("q");
  auto lap = b.field("lap");
  auto out = b.field("out");
  b.parallel().full().assign(lap, q(1, 0) + q(-1, 0) + q(0, 1) + q(0, -1) - dsl::E(q) * 4.0);
  b.parallel().full().assign(out, dsl::E(q) + (lap(1, 0) + lap(-1, 0) + lap(0, 1) + lap(0, -1) -
                                               dsl::E(lap) * 4.0) *
                                                  0.1);
  const int cm = p.add_state(ir::State{"compute", {ir::SNode::make_stencil("diffuse", b.build())}});
  dsl::StencilBuilder c("commit");
  auto q2 = c.field("q");
  auto out2 = c.field("out");
  c.parallel().full().assign(q2, dsl::E(out2));
  const int cp = p.add_state(ir::State{"commit", {ir::SNode::make_stencil("commit", c.build())}});
  p.control_flow().children.push_back(ir::CFNode::loop(
      "it", trips,
      {ir::CFNode::state_ref(hx), ir::CFNode::state_ref(cm), ir::CFNode::state_ref(cp)}));
  return p;
}

/// The elastic shrink/grow timeline: step the diffusion chain through the
/// elastic runtime one global step at a time, so every row carries the wall
/// time of its step and any membership change (with the resize latency split
/// into snapshot / rebuild / halo-refresh). Each step happens once in the
/// run, so its row is one sample. A second run, repeated from scratch,
/// demonstrates the load balancer shedding an injected straggler. Returns
/// the JSON records.
std::vector<std::string> run_elastic_timeline(bool print) {
  std::vector<std::string> records;
  const int n = 48, nk = 16, steps = 8;

  // Scripted shrink -> grow round-trip: 24 -> 6 at step 2, 6 -> 24 at step 5.
  {
    const ir::Program p = diffusion_chain(/*trips=*/4);
    const grid::Partitioner part = grid::Partitioner::for_ranks(n, 24);
    comm::ElasticOptions eo;
    eo.runtime.channel.recv_timeout_seconds = bench::recv_timeout_seconds();
    eo.plan.events = {{2, 6}, {5, 24}};
    comm::ElasticRuntime ert(
        p, nk, 3, part, verify::seeded_catalogs(p, comm::launch_domains(part, nk), 0xE1A0), eo);
    if (print) {
      std::printf("%6s %6s %12s %10s  %s\n", "step", "ranks", "step time", "resize",
                  "resize latency (snapshot + rebuild + refresh)");
    }
    for (int s = 0; s < steps; ++s) {
      const int ranks_before = ert.num_ranks();
      WallTimer timer;
      const comm::ElasticReport r = ert.run(s + 1);
      const double step_seconds = timer.seconds();
      if (!r.ok) {
        std::fprintf(stderr, "elastic timeline step %d failed: %s\n", s, r.failure.c_str());
        break;
      }
      double resize_seconds = 0;
      std::string trigger;
      for (const comm::ResizeRecord& rec : r.resize_log) {
        resize_seconds += rec.total_seconds();
        trigger = rec.trigger;
        char rextra[256];
        std::snprintf(rextra, sizeof rextra,
                      "\"at_step\":%ld,\"from_ranks\":%d,\"to_ranks\":%d,\"trigger\":\"%s\","
                      "\"snapshot_seconds\":%.6g,\"rebuild_seconds\":%.6g,"
                      "\"refresh_seconds\":%.6g",
                      rec.at_step, rec.from_ranks, rec.to_ranks, rec.trigger.c_str(),
                      rec.snapshot_seconds, rec.rebuild_seconds, rec.refresh_seconds);
        const double t = rec.total_seconds();
        records.push_back(perf::format_bench_record(
            "fig11_elastic",
            "resize_" + std::to_string(rec.from_ranks) + "to" + std::to_string(rec.to_ranks), 1,
            Timing{1, t, t, t}, 1.0, rextra));
      }
      char extra[160];
      std::snprintf(extra, sizeof extra,
                    "\"step\":%d,\"ranks\":%d,\"resize_trigger\":\"%s\","
                    "\"resize_seconds\":%.6g",
                    s, ert.num_ranks(), trigger.c_str(), resize_seconds);
      records.push_back(perf::format_bench_record(
          "fig11_elastic", "timeline_s" + std::to_string(s), 1,
          Timing{1, step_seconds, step_seconds, step_seconds}, 1.0, extra));
      if (print) {
        std::printf("%6d %3d->%-3d %12s %10s  %s\n", s, ranks_before, ert.num_ranks(),
                    str::human_time(step_seconds).c_str(),
                    trigger.empty() ? "-" : trigger.c_str(),
                    resize_seconds > 0 ? str::human_time(resize_seconds).c_str() : "");
      }
    }
  }

  // Load-balancer leg: a synthetic straggler (busy-wait, wall-time only)
  // drives the per-rank EWMAs apart until the balancer re-rosters.
  {
    const ir::Program p = diffusion_chain(/*trips=*/1);
    const grid::Partitioner part = grid::Partitioner::for_ranks(n, 6);
    comm::ElasticOptions eo;
    eo.runtime.channel.recv_timeout_seconds = bench::recv_timeout_seconds();
    eo.runtime.imbalance.slow_rank = 2;
    eo.runtime.imbalance.extra_us_per_state = 2000;
    eo.balancer.enabled = true;
    eo.balancer.trigger_ratio = 1.5;
    eo.balancer.warmup_steps = 2;
    // The balancer re-rosters once per run, so every repetition is a fresh
    // runtime; its construction is part of the timed run.
    const auto doms = comm::launch_domains(part, nk);
    comm::ElasticReport r;
    const Timing t = time_reps(bench::kReps, [&] {
      comm::ElasticRuntime ert(p, nk, 3, part, verify::seeded_catalogs(p, doms, 0xBA1A), eo);
      r = ert.run(steps);
    }).per(steps);
    double rebalance_latency = 0;
    for (const comm::ResizeRecord& rec : r.resize_log) {
      if (rec.trigger == "imbalance") rebalance_latency += rec.total_seconds();
    }
    char extra[200];
    std::snprintf(extra, sizeof extra,
                  "\"ok\":%s,\"steps\":%d,\"rebalances\":%d,\"slow_rank\":2,"
                  "\"extra_us_per_state\":2000,\"rebalance_seconds\":%.6g",
                  r.ok ? "true" : "false", steps, r.rebalances, rebalance_latency);
    records.push_back(
        perf::format_bench_record("fig11_elastic", "rebalance_imbalance", 1, t, 1.0, extra));
    if (print) {
      std::printf(
          "straggler shed: %d rebalance(s) over %d steps, rebalance latency %s "
          "(%s/step overall)\n",
          r.rebalances, steps, str::human_time(rebalance_latency).c_str(),
          str::human_time(t.median).c_str());
    }
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string git_sha = "unreleased";
  std::string generated = "unknown";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[a], "--git-sha") == 0 && a + 1 < argc) {
      git_sha = argv[++a];
    } else if (std::strcmp(argv[a], "--generated") == 0 && a + 1 < argc) {
      generated = argv[++a];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[a]);
      return 2;
    }
  }

  // --json: print only the elastic timeline as a complete BENCH_elastic.json
  // snapshot (schema of tests/test_perf.cpp) and exit.
  if (json) {
    bench::print_snapshot(
        "fig11_elastic",
        "Measured shrink/grow timeline of the elastic membership layer on the "
        "halo-diffusion chain (48x48 tiles, nk=16): per-step wall times across a scripted "
        "24->6->24 re-roster with the resize latency split into snapshot / rebuild / "
        "halo-refresh (one sample each: every step and resize happens once in the run), plus "
        "a load-balancer run where an injected straggler triggers a re-roster (the median of "
        "repeated fresh runs). Elastic runs are bitwise identical to static membership — see "
        "tests/test_elastic.cpp and verify_pipeline --elastic.",
        generated, git_sha, argc, argv, "diffusion_chain_n48",
        run_elastic_timeline(/*print=*/false));
    return 0;
  }

  bench::print_header("Fig. 11 — Weak scaling, 192x192x80 per node (time per physics step)");

  const fv3::FvConfig cfg = bench::paper_config();

  // FORTRAN line: flat in weak scaling (per-node work constant).
  grid::Partitioner part6(cfg.npx, 1, 1);
  fv3::ModelState edge_state(cfg, part6, 0);
  ir::Program fortran_prog =
      fv3::build_dycore_program(edge_state, fv3::DycoreSchedules::defaults());
  const double fortran_compute = perf::model_module_cpu(
      ir::expand_program(fortran_prog, edge_state.domain()), perf::haswell());

  struct Point {
    int nodes;
    int ranks_per_tile_side;
  };
  // 6 uses whole tiles; larger counts use px x px subdomains per tile.
  const Point points[] = {{6, 1}, {54, 3}, {96, 4}, {216, 6}, {384, 8}, {864, 12}, {2400, 20}};

  std::printf("%8s %14s %14s %12s %12s %10s\n", "nodes", "P100/step", "FORTRAN/step",
              "comm", "speedup", "grid [km]");
  double p100_54 = 0;
  for (const Point& pt : points) {
    // Worst rank: a tile-corner rank owns two tile edges (all four on the
    // 6-node layout) — the paper's explanation for the higher speedups at
    // scale.
    exec::LaunchDomain dom = edge_state.domain();
    const int side = pt.ranks_per_tile_side;
    dom.gni = cfg.npx * side;
    dom.gnj = cfg.npx * side;
    dom.gi0 = 0;  // corner rank: owns W and S edges
    dom.gj0 = 0;

    const double compute = tuned_step_time(edge_state, dom, perf::p100());
    const double comm = comm_time_per_step(cfg, side * side);
    const double fortran = fortran_compute + comm;
    const double step = compute + comm;
    if (pt.nodes == 54) p100_54 = step;

    // Grid spacing: 6 * npx * side cells around the equator.
    const double km = 2.0 * M_PI * grid::kEarthRadius / 1000.0 / (4.0 * cfg.npx * side);
    std::printf("%8d %14s %14s %12s %11.2fx %10.2f\n", pt.nodes,
                str::human_time(step).c_str(), str::human_time(fortran).c_str(),
                str::human_time(comm).c_str(), fortran / step, km);

    if (pt.nodes == 2400) {
      const double sypd = cfg.dt / (365.0 * step);
      std::printf("%8s throughput at %.2f km: %.3f SYPD (paper: 0.11 SYPD at 2.28 km)\n", "",
                  km, sypd);
    }
  }

  // A100 portability point (54 ranks).
  {
    exec::LaunchDomain dom = edge_state.domain();
    dom.gni = cfg.npx * 3;
    dom.gnj = cfg.npx * 3;
    const double a100 = tuned_step_time(edge_state, dom, perf::a100()) +
                        comm_time_per_step(cfg, 9);
    bench::print_rule();
    std::printf("A100 (54 ranks): %s vs P100 %s -> %.2fx faster (paper: 2.42x on a 2.83x\n"
                "bandwidth ratio)\n",
                str::human_time(a100).c_str(), str::human_time(p100_54).c_str(),
                p100_54 / a100);
  }
  std::printf(
      "Shapes: near-flat weak scaling for both lines, FORTRAN/GPU gap roughly\n"
      "constant and slightly wider at scale (edge specializations amortize away).\n");

  // ---- Measured: thread-per-rank concurrent runtime ----------------------
  // The numbers above are modeled; this section runs the real distributed
  // dycore (scaled-down domain, one OS thread per rank) under the lockstep
  // scheduler and under the concurrent runtime, whose messages carry a
  // scaled Aries alpha-beta latency. Each cell is the median of the timed
  // steps with their [min, max].
  bench::print_rule();
  std::printf("Measured (not modeled): distributed dycore wall-clock per step\n");
  {
    const double net_scale = 12000.0;
    std::printf("%-8s %6s %32s %32s %10s\n", "program", "ranks", "lockstep [min, max]",
                "concurrent [min, max]", "conc/lock");
    for (int ranks : {6, 24}) {
      // Weak scaling: 24x24x16 per rank at every rank count.
      const int side = static_cast<int>(std::lround(std::sqrt(ranks / 6.0)));
      fv3::FvConfig mcfg = bench::paper_config(/*npx=*/24 * side, /*npz=*/16);
      mcfg.k_split = 1;
      mcfg.n_split = 3;
      const Timing lockstep = measured_step_seconds(mcfg, ranks, false, net_scale);
      const Timing concurrent = measured_step_seconds(mcfg, ranks, true, net_scale);
      std::printf("%-8s %6d %32s %32s %9.2fx\n", "dycore", ranks, with_range(lockstep).c_str(),
                  with_range(concurrent).c_str(), concurrent.median / lockstep.median);
      const std::string r = "_r" + std::to_string(ranks);
      bench::emit_json_record("fig11_measured", "dycore_lockstep" + r, 1, lockstep, 1.0);
      bench::emit_json_record("fig11_measured", "dycore_concurrent" + r, 1, concurrent,
                              lockstep.median / concurrent.median);
    }
    std::printf(
        "Each rank is one OS thread: where ranks outnumber the cores, the concurrent\n"
        "column measures oversubscription as much as the runtime.\n");
  }

  // ---- Measured: fault-tolerance overhead --------------------------------
  // What resilience costs when nothing goes wrong, and what absorbing faults
  // costs when it does: the same diffusion chain (a) clean, (b) with the
  // reliable envelope and 5% drop + 5% corruption on every wire message, and
  // (c) with a mid-run rank crash recovered by rollback-restart from a
  // per-step checkpoint. Each JSON record carries the reliability/recovery
  // counters, so regressions in retransmit volume are as visible as time.
  bench::print_rule();
  std::printf("Measured: fault-tolerance overhead (diffusion chain, 6 ranks, 48x48x32)\n");
  {
    const ir::Program p = diffusion_chain(/*trips=*/8);
    const grid::Partitioner part = grid::Partitioner::for_ranks(48, 6);
    const comm::HaloUpdater halo(part, 3);
    const int nk = 32, steps = 4;
    const auto doms = comm::launch_domains(part, nk);

    struct Scenario {
      const char* name;
      comm::FaultPlan plan;
      bool recover;
    };
    comm::FaultPlan clean;
    comm::FaultPlan lossy;
    lossy.seed = 0xBE4C;
    lossy.drop_rate = 0.05;
    lossy.corrupt_rate = 0.05;
    comm::FaultPlan crash;
    crash.seed = 0xBE4C;
    crash.failure = comm::FaultPlan::Failure::Crash;
    crash.fail_rank = 3;
    crash.fail_step = steps / 2;
    crash.fail_at_state = 1;
    const Scenario scenarios[] = {
        {"clean", clean, false}, {"drop_corrupt_5pct", lossy, false}, {"crash_recovery", crash, true}};

    double clean_seconds = 0;
    for (const Scenario& sc : scenarios) {
      std::vector<FieldCatalog> cats = verify::seeded_catalogs(p, doms, 0xFA17);
      std::vector<comm::RankDomain> ranks = comm::bind_ranks(cats, doms);
      comm::RuntimeOptions ro;
      ro.channel.recv_timeout_seconds = bench::recv_timeout_seconds();
      ro.faults = sc.plan;
      ro.recovery.enabled = sc.recover;
      comm::ConcurrentRuntime rt(p, halo, ranks, ro);
      // Re-arming restarts the step count, so every run meets the same
      // faults (the crash included); the counters are the last run's.
      comm::RunReport rr;
      const auto run = [&] {
        rt.set_fault_options(sc.plan, ro.recovery);
        rt.comm().reset_counters();
        rr = rt.run(steps);
      };
      const Timing per_step = time_reps(bench::kReps, run).per(steps);
      if (std::strcmp(sc.name, "clean") == 0) clean_seconds = per_step.median;
      const comm::ReliabilityCounters& c = rr.channel;
      std::printf(
          "  %-18s %s per step (%+.1f%%)  retransmits=%ld corrupt_detected=%ld dups_dropped=%ld "
          "restarts=%d rolled_back=%ld%s\n",
          sc.name, with_range(per_step).c_str(),
          100.0 * (per_step.median - clean_seconds) / clean_seconds, c.retransmits,
          c.corrupt_detected, c.dups_dropped, rr.restarts, rr.rolled_back_steps,
          rr.ok ? "" : "  [FAILED]");
      char extra[256];
      std::snprintf(extra, sizeof extra,
                    "\"ok\":%s,\"retransmits\":%ld,\"corrupt_detected\":%ld,"
                    "\"dups_dropped\":%ld,\"faults_injected\":%ld,\"restarts\":%d,"
                    "\"checkpoints\":%d,\"rolled_back_steps\":%ld",
                    rr.ok ? "true" : "false", c.retransmits, c.corrupt_detected, c.dups_dropped,
                    c.faults_injected(), rr.restarts, rr.checkpoints, rr.rolled_back_steps);
      bench::emit_json_record("fig11_fault_tolerance", sc.name, 1, per_step,
                              clean_seconds / per_step.median, extra);
    }
  }

  // ---- Measured: elastic membership (shrink/grow timeline) ---------------
  // Ranks leave and join mid-run: per-step wall times across a scripted
  // 24 -> 6 -> 24 re-roster (resize latency split into snapshot / rebuild /
  // halo-refresh), then a load balancer shedding an injected straggler.
  bench::print_rule();
  std::printf("Measured: elastic membership timeline (diffusion chain, 48x48x16 per tile)\n");
  {
    const std::vector<std::string> records = run_elastic_timeline(/*print=*/true);
    for (const std::string& r : records) std::printf("%s\n", r.c_str());
  }
  return 0;
}
