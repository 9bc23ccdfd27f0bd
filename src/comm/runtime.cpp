#include "comm/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/exec/extents.hpp"

namespace cyclone::comm {

bool is_halo_only(const ir::State& st) {
  return !st.nodes.empty() &&
         std::all_of(st.nodes.begin(), st.nodes.end(), [](const ir::SNode& n) {
           return n.kind == ir::SNode::Kind::HaloExchange;
         });
}

namespace {

/// Post rank `rank`'s sends for one halo-exchange node (pack included, so
/// the source cells may be overwritten as soon as this returns).
void start_halo_node_rank(const HaloUpdater& halo, const ir::SNode& node, RankDomain& rd,
                          int rank, Comm& comm) {
  if (node.halo_vector) {
    CY_REQUIRE_MSG(node.halo_fields.size() % 2 == 0, "vector halo exchange needs (u, v) pairs");
    for (size_t p = 0; p < node.halo_fields.size(); p += 2) {
      halo.start_vector_rank(rank, rd.catalog->at(node.halo_fields[p]),
                             rd.catalog->at(node.halo_fields[p + 1]), comm);
    }
    return;
  }
  std::vector<const FieldD*> fields;
  fields.reserve(node.halo_fields.size());
  for (const auto& name : node.halo_fields) fields.push_back(&rd.catalog->at(name));
  halo.start_scalars_rank(rank, fields, comm);
}

/// Receive, unpack and corner-fill rank `rank`'s side of one halo-exchange
/// node. Blocks (under ConcurrentComm) until the neighbors' messages arrive.
void finish_halo_node_rank(const HaloUpdater& halo, const ir::SNode& node, RankDomain& rd,
                           int rank, Comm& comm) {
  if (node.halo_vector) {
    for (size_t p = 0; p < node.halo_fields.size(); p += 2) {
      FieldD& u = rd.catalog->at(node.halo_fields[p]);
      FieldD& v = rd.catalog->at(node.halo_fields[p + 1]);
      halo.finish_vector_rank(rank, u, v, comm);
      halo.fill_cube_corners_rank(rank, u, CornerFill::XDir);
      halo.fill_cube_corners_rank(rank, v, CornerFill::YDir);
    }
    return;
  }
  std::vector<FieldD*> fields;
  fields.reserve(node.halo_fields.size());
  for (const auto& name : node.halo_fields) fields.push_back(&rd.catalog->at(name));
  halo.finish_scalars_rank(rank, fields, comm);
  for (FieldD* f : fields) halo.fill_cube_corners_rank(rank, *f, CornerFill::XDir);
}

}  // namespace

void run_halo_node(const HaloUpdater& halo, const ir::SNode& node,
                   std::vector<RankDomain>& ranks, Comm& comm) {
  // The collective form is just the per-rank primitives looped over ranks:
  // one packing code path keeps the lockstep and concurrent schedulers
  // bitwise identical by construction.
  for (size_t r = 0; r < ranks.size(); ++r) {
    start_halo_node_rank(halo, node, ranks[r], static_cast<int>(r), comm);
  }
  for (size_t r = 0; r < ranks.size(); ++r) {
    finish_halo_node_rank(halo, node, ranks[r], static_cast<int>(r), comm);
  }
}

void run_lockstep_step(const ir::Program& program, const HaloUpdater& halo,
                       std::vector<RankDomain>& ranks, Comm& comm) {
  const ir::Program* programs = &program;
  const HaloUpdater* halos = &halo;
  std::vector<RankDomain>* rank_sets = &ranks;
  Comm* comms = &comm;
  run_lockstep_step({&programs, 1}, {&halos, 1}, {&rank_sets, 1}, {&comms, 1});
}

void run_lockstep_step(std::span<const ir::Program* const> programs,
                       std::span<const HaloUpdater* const> halos,
                       std::span<std::vector<RankDomain>* const> ranks,
                       std::span<Comm* const> comms) {
  const size_t n = programs.size();
  CY_REQUIRE_MSG(n > 0 && halos.size() == n && ranks.size() == n && comms.size() == n,
                 "lockstep batch needs one program, halo updater, rank set and comm per "
                 "instance");
  for (size_t m = 0; m < n; ++m) {
    CY_REQUIRE_MSG(static_cast<int>(ranks[m]->size()) == halos[m]->partitioner().num_ranks(),
                   "rank count mismatch");
  }
  const ir::Program& lead = *programs[0];
  for (int sidx : lead.flatten_execution_order()) {
    const ir::State& st = lead.states()[static_cast<size_t>(sidx)];
    if (is_halo_only(st)) {
      for (size_t m = 0; m < n; ++m) {
        for (const auto& node : st.nodes) run_halo_node(*halos[m], node, *ranks[m], *comms[m]);
      }
      continue;
    }
    for (size_t m = 0; m < n; ++m) {
      for (auto& rd : *ranks[m]) programs[m]->execute_state(sidx, *rd.catalog, rd.dom);
    }
  }
}

// --- Overlap analysis -------------------------------------------------------

namespace {

/// Horizontal apply-rectangle extension of one statement beyond the launch
/// rectangle (write extent from the extent analysis plus the node's own
/// domain extension), per side. Two statements with equal tuples cover any
/// cell in exactly the same set of interior/rim launches.
struct ExtTuple {
  int ilo = 0, ihi = 0, jlo = 0, jhi = 0;
  [[nodiscard]] bool zero() const { return !ilo && !ihi && !jlo && !jhi; }
  [[nodiscard]] int max() const { return std::max({ilo, ihi, jlo, jhi, 0}); }
  friend bool operator==(const ExtTuple&, const ExtTuple&) = default;
};

struct FlatAccess {
  std::string lhs;  ///< resolved: catalog name, or per-node-scoped temp key
  ExtTuple ext;
  struct Read {
    std::string name;
    int h_off = 0;  ///< max |horizontal offset|
    int k_lo = 0, k_hi = 0;
  };
  std::vector<Read> reads;
};

}  // namespace

OverlapPlan analyze_overlap(const ir::Program& program, int state_index) {
  OverlapPlan plan;
  CY_REQUIRE_MSG(state_index >= 0 && state_index < static_cast<int>(program.states().size()),
                 "state index " << state_index << " out of range");
  const ir::State& st = program.states()[static_cast<size_t>(state_index)];
  if (st.nodes.empty()) {
    plan.reason = "empty state";
    return plan;
  }

  // Flatten every statement of the state into execution order, resolving
  // field names through the node's argument binding. Temporaries are scoped
  // per node (each launch has private scratch), so they can never alias a
  // catalog field or another node's temp.
  std::vector<FlatAccess> flat;
  for (size_t n = 0; n < st.nodes.size(); ++n) {
    const ir::SNode& node = st.nodes[n];
    if (node.kind != ir::SNode::Kind::Stencil) {
      plan.reason = "non-stencil node '" + node.label + "'";
      return plan;
    }
    const auto temp_key = [n](const std::string& name) {
      return "#" + std::to_string(n) + ":" + name;
    };
    for (const auto& a : exec::collect_stmt_accesses(*node.stencil)) {
      FlatAccess fa;
      fa.lhs = a.lhs_is_temp ? temp_key(a.lhs) : node.args.actual(a.lhs);
      fa.ext = ExtTuple{-a.write_extent.i_lo + node.ext.ilo, a.write_extent.i_hi + node.ext.ihi,
                        -a.write_extent.j_lo + node.ext.jlo, a.write_extent.j_hi + node.ext.jhi};
      for (const auto& r : a.reads) {
        FlatAccess::Read read;
        read.name = r.is_temp ? temp_key(r.name) : node.args.actual(r.name);
        read.h_off = std::max({-r.ext.i_lo, r.ext.i_hi, -r.ext.j_lo, r.ext.j_hi});
        read.k_lo = r.ext.k_lo;
        read.k_hi = r.ext.k_hi;
        fa.reads.push_back(std::move(read));
      }
      flat.push_back(std::move(fa));
    }
  }

  // Rule 1 (anti-dependences): a read of a name that the same or a later
  // statement writes. At nonzero horizontal offset the rim pass would see
  // post-state values where the full launch saw pre-state ones — never
  // splittable. At zero horizontal offset the read-then-write must happen
  // exactly once per cell and inside one launch, which requires both rects
  // to tile the launch rectangle exactly (zero extension). The one
  // exception is a statement's own vertical recurrence (reads its own LHS
  // only at k offsets): each launch re-runs the whole column sweep, so the
  // recurrence is recomputed identically from its (idempotent) base.
  for (size_t p = 0; p < flat.size(); ++p) {
    for (const auto& read : flat[p].reads) {
      for (size_t q = p; q < flat.size(); ++q) {
        if (flat[q].lhs != read.name) continue;
        if (read.h_off > 0) {
          plan.reason = "statement " + std::to_string(p) + " reads '" + read.name +
                        "' at horizontal offset " + std::to_string(read.h_off) +
                        " which statement " + std::to_string(q) + " overwrites";
          return plan;
        }
        const bool self_recurrence = q == p && (read.k_lo > 0 || read.k_hi < 0);
        if (self_recurrence) continue;  // handled by rule 2's writer equality
        if (!flat[p].ext.zero() || !flat[q].ext.zero()) {
          plan.reason = "read-modify-write of '" + read.name +
                        "' with an extended apply domain (statements " + std::to_string(p) +
                        ", " + std::to_string(q) + ")";
          return plan;
        }
      }
    }
  }

  // Rule 2 (output dependences): every writer of a multiply-written name
  // must carry the same extension tuple. Equal rects mean every launch that
  // covers a cell runs *all* its writers in program order, so the final
  // value comes from the same statement as in the full launch.
  {
    std::map<std::string, ExtTuple> writer_ext;
    for (const auto& fa : flat) {
      auto [it, inserted] = writer_ext.emplace(fa.lhs, fa.ext);
      if (!inserted && !(it->second == fa.ext)) {
        plan.reason = "'" + fa.lhs + "' is written by statements with different apply extensions";
        return plan;
      }
    }
  }

  // Transitive read radius: how deep into the owned region a cell must sit
  // for its value (through all intermediates and apply extensions) to be a
  // function of owned pre-state cells only. depth[f] = how far f's written
  // values reach; a statement's reads reach base depth + |offset|, and its
  // own rect extends ext.max() beyond the launch rectangle.
  std::map<std::string, int> depth;
  int radius = 0;
  for (const auto& fa : flat) {
    int d = 0;
    for (const auto& read : fa.reads) {
      auto it = depth.find(read.name);
      const int base = it == depth.end() ? 0 : it->second;
      d = std::max(d, base + read.h_off);
    }
    radius = std::max(radius, d + fa.ext.max());
    auto [it, inserted] = depth.emplace(fa.lhs, d);
    if (!inserted) it->second = std::max(it->second, d);
  }

  plan.splittable = true;
  plan.radius = radius;
  return plan;
}

// --- Concurrent runtime -----------------------------------------------------

ConcurrentRuntime::ConcurrentRuntime(const ir::Program& program, const HaloUpdater& halo,
                                     std::vector<RankDomain> ranks, RuntimeOptions options)
    : halo_(halo),
      ranks_(std::move(ranks)),
      options_(options),
      comm_(static_cast<int>(ranks_.size()), options.channel) {
  CY_REQUIRE_MSG(!ranks_.empty(), "need at least one rank");
  CY_REQUIRE_MSG(static_cast<int>(ranks_.size()) == halo.partitioner().num_ranks(),
                 "rank count mismatch with halo updater");
  for (const auto& rd : ranks_) CY_REQUIRE_MSG(rd.catalog, "rank without catalog");

  // One program copy per rank. The copy shares the immutable stencil IR
  // (shared_ptr) but must not share the executor caches: CompiledStencil
  // keeps a mutable temp pool, which would race across rank threads.
  exec::RunOptions per_rank = options_.run;
  per_rank.num_threads = options_.run.threads_per_rank > 0 ? options_.run.threads_per_rank : 1;
  programs_.reserve(ranks_.size());
  for (size_t r = 0; r < ranks_.size(); ++r) {
    programs_.push_back(program);
    programs_.back().invalidate_compiled();
    programs_.back().set_run_options(per_rank);
    programs_.back().precompile();
  }
  analyze_states();

  heartbeats_ = std::make_unique<std::atomic<long>[]>(ranks_.size());
  for (size_t r = 0; r < ranks_.size(); ++r) heartbeats_[r].store(0, std::memory_order_relaxed);
  step_seconds_.assign(ranks_.size(), 0.0);
  health_.resize(ranks_.size());
  for (size_t r = 0; r < ranks_.size(); ++r) health_[r].rank = static_cast<int>(r);
  if (options_.faults.active()) comm_.set_fault_plan(options_.faults);
  if (options_.faults.failure != FaultPlan::Failure::None) {
    fail_injector_ = std::make_unique<FaultInjector>(options_.faults);
  }
}

void ConcurrentRuntime::set_fault_options(const FaultPlan& faults, const RecoveryOptions& recovery) {
  options_.faults = faults;
  options_.recovery = recovery;
  comm_.set_fault_plan(faults);
  fail_injector_ = faults.failure != FaultPlan::Failure::None
                       ? std::make_unique<FaultInjector>(faults)
                       : nullptr;
  comm_.reset_for_recovery();
  halo_.reset_pools();
  step_index_ = 0;
}

void ConcurrentRuntime::analyze_states() {
  const ir::Program& program = programs_[0];
  const size_t nstates = program.states().size();
  order_ = program.flatten_execution_order();
  halo_only_.assign(nstates, 0);
  plans_.assign(nstates, OverlapPlan{});
  for (size_t s = 0; s < nstates; ++s) {
    halo_only_[s] = is_halo_only(program.states()[s]) ? 1 : 0;
    if (!halo_only_[s]) plans_[s] = analyze_overlap(program, static_cast<int>(s));
  }
}

bool ConcurrentRuntime::fuses_next(int rank, size_t p) const {
  if (!options_.overlap || p + 1 >= order_.size()) return false;
  const OverlapPlan& plan = plans_[static_cast<size_t>(order_[p + 1])];
  if (!plan.splittable) return false;
  const exec::LaunchDomain& dom = ranks_[static_cast<size_t>(rank)].dom;
  // The four rim strips tile the boundary only while 2R fits the subdomain;
  // smaller ranks fall back to compute-after-exchange (still bitwise equal).
  return dom.ni >= 2 * plan.radius && dom.nj >= 2 * plan.radius;
}

void ConcurrentRuntime::execute_with_ext(int rank, int state_index, const exec::DomainExt& ext) {
  RankDomain& rd = ranks_[static_cast<size_t>(rank)];
  exec::LaunchDomain dom = rd.dom;
  dom.ext.ilo += ext.ilo;
  dom.ext.ihi += ext.ihi;
  dom.ext.jlo += ext.jlo;
  dom.ext.jhi += ext.jhi;
  programs_[static_cast<size_t>(rank)].execute_state(state_index, *rd.catalog, dom);
}

void ConcurrentRuntime::run_rank(int rank) {
  RankDomain& rd = ranks_[static_cast<size_t>(rank)];
  const ir::Program& prog = programs_[static_cast<size_t>(rank)];
  // Heartbeat + injected-failure hook for position `p` of the flattened
  // order. Called at the top of every iteration AND for a state the overlap
  // path consumes early, so a planned kill point fires regardless of whether
  // its state runs standalone or fused into the preceding exchange.
  const auto maybe_fail = [&](size_t p) {
    heartbeats_[static_cast<size_t>(rank)].fetch_add(1, std::memory_order_relaxed);
    // Synthetic straggler: burn wall time only. The busy-wait touches no
    // data, so EWMAs diverge while results stay bitwise identical.
    const ImbalancePlan& imb = options_.imbalance;
    if (imb.active() && rank == imb.slow_rank && step_index_ >= imb.from_step) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(imb.extra_us_per_state);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    if (!fail_injector_ || !fail_injector_->should_fail(rank, step_index_, static_cast<int>(p))) {
      return;
    }
    if (options_.faults.failure == FaultPlan::Failure::Hang) {
      // A hung rank does not throw — it just stops. Block (and stop
      // heartbeating) until the health monitor declares the job dead,
      // then unwind like a crash so recovery can take over.
      comm_.wait_aborted();
      CY_REQUIRE_MSG(false, "rank " << rank << " hung (injected) at step " << step_index_
                                    << " state " << p);
    }
    CY_REQUIRE_MSG(false, "rank " << rank << " crashed (injected) at step " << step_index_
                                  << " state " << p);
  };
  for (size_t p = 0; p < order_.size(); ++p) {
    maybe_fail(p);
    const int sidx = order_[p];
    if (!halo_only_[static_cast<size_t>(sidx)]) {
      prog.execute_state(sidx, *rd.catalog, rd.dom);
      continue;
    }
    const ir::State& st = prog.states()[static_cast<size_t>(sidx)];
    for (const auto& node : st.nodes) start_halo_node_rank(halo_, node, rd, rank, comm_);
    if (!fuses_next(rank, p)) {
      for (const auto& node : st.nodes) finish_halo_node_rank(halo_, node, rd, rank, comm_);
      continue;
    }
    const int next = order_[p + 1];
    maybe_fail(p + 1);  // the fused state's kill point, before its interior runs
    const int R = plans_[static_cast<size_t>(next)].radius;
    // Interior: shrink all four sides by R. Every cell it writes depends
    // only on owned pre-state data, so it runs while messages are in
    // flight (the exchange touches halo cells only).
    execute_with_ext(rank, next, exec::DomainExt{-R, -R, -R, -R});
    for (const auto& node : st.nodes) finish_halo_node_rank(halo_, node, rd, rank, comm_);
    if (R > 0) {
      // Rim: south/north full-width strips, west/east between them.
      const int ni = rd.dom.ni, nj = rd.dom.nj;
      execute_with_ext(rank, next, exec::DomainExt{0, 0, 0, R - nj});
      execute_with_ext(rank, next, exec::DomainExt{0, 0, -(nj - R), 0});
      execute_with_ext(rank, next, exec::DomainExt{0, R - ni, -R, -R});
      execute_with_ext(rank, next, exec::DomainExt{-(ni - R), 0, -R, -R});
    }
    ++p;  // the split state is done; skip its position in the order
  }
}

void ConcurrentRuntime::online_retune() {
  if (options_.run.tune_mode != exec::TuneMode::Online) return;
  if (!online_) {
    tune::OnlineOptions oo;
    // Model the subdomain ranks actually run (rank 0's placement — tuning
    // decisions are shape-level and applied identically to every rank, so
    // all rank copies stay structurally identical for the halo collectives).
    oo.tuning.dom = ranks_[0].dom;
    oo.tuning.run = options_.run;
    oo.db_path = options_.run.tune_db;
    online_ = std::make_unique<tune::OnlineTuner>(programs_[0], oo);
  }
  if (online_->done()) return;
  if (online_->tune_slice() == 0) return;
  bool swapped = false;
  for (ir::Program& program : programs_) {
    // Every rank copy receives the same staged swaps.
    swapped = !online_->hot_swap(program).empty();
    // Rebuild executor caches (and, on the JIT backend, run codegen and the
    // host compiler) here on the coordinator thread — spare cycles between
    // steps — so swapped kernels never compile on a rank thread's hot path.
    program.precompile();
  }
  // The tables were derived from the pre-swap states; a fused state can
  // change its splittability or read radius, so re-derive them before any
  // rank uses them.
  if (swapped) analyze_states();
  online_->commit();
}

void ConcurrentRuntime::step() {
  online_retune();
  std::vector<std::thread> threads;
  threads.reserve(ranks_.size());
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (size_t r = 0; r < ranks_.size(); ++r) {
    threads.emplace_back([this, r, &error_mutex, &first_error] {
      try {
        const auto t0 = std::chrono::steady_clock::now();
        run_rank(static_cast<int>(r));
        step_seconds_[r] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      } catch (const std::exception& e) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          // Keep the temporally-first failure: abort-induced errors in other
          // ranks arrive later and only echo the root cause.
          if (!first_error) first_error = std::current_exception();
        }
        comm_.abort("rank " + std::to_string(r) + " failed: " + e.what());
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        comm_.abort("rank " + std::to_string(r) + " failed");
      }
    });
  }

  // Health monitor: a hung rank never throws, so nobody would abort the
  // channel — the job would sit in recv until the (long) timeout. The
  // monitor watches the per-rank heartbeats; when *no* rank has advanced
  // for heartbeat_timeout_seconds, it names the least-advanced rank (the
  // one everyone else is stuck waiting on) and aborts.
  std::atomic<bool> step_done{false};
  std::thread monitor;
  const double hb_timeout = options_.recovery.heartbeat_timeout_seconds;
  if (options_.recovery.enabled && hb_timeout > 0 && fail_injector_) {
    monitor = std::thread([this, &step_done, hb_timeout] {
      using Clock = std::chrono::steady_clock;
      std::vector<long> last(ranks_.size(), -1);
      auto last_progress = Clock::now();
      while (!step_done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        bool progressed = false;
        for (size_t r = 0; r < ranks_.size(); ++r) {
          const long beat = heartbeats_[r].load(std::memory_order_relaxed);
          if (beat != last[r]) {
            last[r] = beat;
            progressed = true;
          }
        }
        const auto now = Clock::now();
        if (progressed) {
          last_progress = now;
          continue;
        }
        if (std::chrono::duration<double>(now - last_progress).count() < hb_timeout) continue;
        if (step_done.load(std::memory_order_acquire)) break;
        size_t suspect = 0;
        for (size_t r = 1; r < ranks_.size(); ++r) {
          if (last[r] < last[suspect]) suspect = r;
        }
        comm_.abort("rank " + std::to_string(suspect) + " unresponsive: no heartbeat for " +
                    std::to_string(hb_timeout) + "s (suspected hang)");
        break;
      }
    });
  }

  for (auto& t : threads) t.join();
  step_done.store(true, std::memory_order_release);
  if (monitor.joinable()) monitor.join();
  if (first_error) std::rethrow_exception(first_error);
  // The monitor may fire between the last heartbeat and the joins on a very
  // slow machine; with every rank actually finished that abort is spurious,
  // but the channel is poisoned — surface it as a step failure so run()
  // rolls back instead of wedging the next step.
  CY_REQUIRE_MSG(!comm_.aborted(), "channel aborted with all ranks complete");
  comm_.purge_acknowledged();
  comm_.assert_drained();

  // Fold the per-rank wall times into the health table. EWMA alpha 0.25:
  // responsive enough to expose an injected straggler within a few steps,
  // damped enough that one noisy step does not trigger a rebalance.
  for (size_t r = 0; r < ranks_.size(); ++r) {
    RankHealth& h = health_[r];
    h.last_seen_step = step_index_;
    h.heartbeats = heartbeats_[r].load(std::memory_order_relaxed);
    h.ewma_step_seconds = h.ewma_step_seconds <= 0.0
                              ? step_seconds_[r]
                              : 0.75 * h.ewma_step_seconds + 0.25 * step_seconds_[r];
  }

  ++step_index_;
  ++stats_.steps;
  for (size_t p = 0; p < order_.size(); ++p) {
    if (!halo_only_[static_cast<size_t>(order_[p])]) continue;
    ++stats_.halo_states;
    if (fuses_next(0, p)) {
      ++stats_.overlapped_states;
      ++p;
    }
  }
}

RunReport ConcurrentRuntime::run(int nsteps) {
  CY_REQUIRE_MSG(nsteps >= 0, "negative step count");
  RunReport report;
  MemoryCheckpointStore internal;
  CheckpointStore* store = options_.recovery.store ? options_.recovery.store : &internal;
  const bool recover = options_.recovery.enabled;
  const int interval = std::max(1, options_.recovery.checkpoint_interval);
  if (fail_injector_) fail_injector_->rearm();
  step_index_ = 0;
  if (recover) {
    store->save(-1, ranks_);
    ++report.checkpoints;
  }
  while (step_index_ < nsteps) {
    try {
      step();
    } catch (const std::exception& e) {
      if (!recover || report.restarts >= options_.recovery.max_restarts) {
        report.ok = false;
        report.failure = e.what();
        report.steps_completed = step_index_;
        report.channel = comm_.reliability();
        report.health = health_;
        comm_.reset_for_recovery();  // leave the runtime reusable
        halo_.reset_pools();
        return report;
      }
      // Rollback-restart: rewind every rank to the last consistent
      // checkpoint, clear the transport (in-flight wire copies died with
      // the step) and the pool accounting of buffers those copies held.
      ++report.restarts;
      const long restored = store->restore(ranks_);
      report.rolled_back_steps += step_index_ - (restored + 1);
      comm_.reset_for_recovery();
      halo_.reset_pools();
      step_index_ = restored + 1;
      continue;
    }
    if (recover && step_index_ % interval == 0) {
      store->save(step_index_ - 1, ranks_);
      ++report.checkpoints;
    }
  }
  report.steps_completed = step_index_;
  report.channel = comm_.reliability();
  report.health = health_;
  return report;
}

std::string run_report_to_json(const RunReport& report) {
  std::ostringstream os;
  const auto esc = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  };
  os << "{\"ok\":" << (report.ok ? "true" : "false")
     << ",\"steps_completed\":" << report.steps_completed << ",\"restarts\":" << report.restarts
     << ",\"checkpoints\":" << report.checkpoints
     << ",\"rolled_back_steps\":" << report.rolled_back_steps << ",\"failure\":\""
     << esc(report.failure) << "\"";
  const ReliabilityCounters& c = report.channel;
  os << ",\"channel\":{\"reliable_sends\":" << c.reliable_sends
     << ",\"retransmits\":" << c.retransmits << ",\"corrupt_detected\":" << c.corrupt_detected
     << ",\"dups_dropped\":" << c.dups_dropped << ",\"reorders_healed\":" << c.reorders_healed
     << ",\"drops_injected\":" << c.drops_injected << ",\"dups_injected\":" << c.dups_injected
     << ",\"reorders_injected\":" << c.reorders_injected
     << ",\"corrupts_injected\":" << c.corrupts_injected
     << ",\"delays_injected\":" << c.delays_injected
     << ",\"faults_injected\":" << c.faults_injected() << "}";
  os << ",\"health\":[";
  for (size_t r = 0; r < report.health.size(); ++r) {
    const RankHealth& h = report.health[r];
    if (r) os << ",";
    os << "{\"rank\":" << h.rank << ",\"last_seen_step\":" << h.last_seen_step
       << ",\"heartbeats\":" << h.heartbeats << ",\"ewma_step_seconds\":" << h.ewma_step_seconds
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace cyclone::comm
