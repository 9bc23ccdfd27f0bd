#include "comm/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/exec/extents.hpp"
#include "core/util/strings.hpp"

namespace cyclone::comm {

bool is_halo_only(const ir::State& st) {
  return !st.nodes.empty() &&
         std::all_of(st.nodes.begin(), st.nodes.end(), [](const ir::SNode& n) {
           return n.kind == ir::SNode::Kind::HaloExchange;
         });
}

exec::LaunchDomain launch_domain(const grid::Partitioner& part, int rank, int nk) {
  const grid::RankInfo info = part.info(rank);
  exec::LaunchDomain dom{info.ni, info.nj, nk};
  dom.gi0 = info.i0;
  dom.gj0 = info.j0;
  dom.gni = part.n();
  dom.gnj = part.n();
  return dom;
}

std::vector<exec::LaunchDomain> launch_domains(const grid::Partitioner& part, int nk) {
  std::vector<exec::LaunchDomain> doms;
  doms.reserve(static_cast<size_t>(part.num_ranks()));
  for (int r = 0; r < part.num_ranks(); ++r) doms.push_back(launch_domain(part, r, nk));
  return doms;
}

std::vector<RankDomain> bind_ranks(std::vector<FieldCatalog>& cats,
                                   const std::vector<exec::LaunchDomain>& doms) {
  CY_REQUIRE_MSG(cats.size() == doms.size(), "bind_ranks: catalog/domain count mismatch");
  std::vector<RankDomain> ranks;
  ranks.reserve(cats.size());
  for (size_t r = 0; r < cats.size(); ++r) ranks.push_back(RankDomain{&cats[r], doms[r]});
  return ranks;
}

namespace {

/// Below this many values moved by one lockstep halo node (summed over all
/// its sides: every rank of a model, or every (member, rank) of a batch),
/// packing and unpacking stay on the calling thread. The fork costs a fixed
/// team wake-up per node while the work it splits grows with the node, so
/// the rule is on the node's total. Measured on a 4-vCPU Xeon, team 3
/// against serial, serial and forked runs alternating on the same nodes:
/// 1.7k values (one SWE c12 member, 6 sides) 0.92-1.0x; 3.5k-5.2k (2-3
/// SWE members) 0.92-0.94x;
/// 6.9k-14k (one dycore c12z8 member, or 4-8 SWE members) 0.68-0.94x;
/// 20k-330k (batched c12z8, dycore c24r24) 0.40-0.65x.
constexpr size_t kHaloForkValues = 4096;

/// One rank's side of one halo-exchange node: the node's fields in the
/// rank's catalog and, while the node is in flight, its messages. A vector
/// node makes one exchange per (u, v) pair, a scalar node one coalesced
/// exchange of all its fields; every exchange is followed by its
/// cube-corner fills. The concurrent runtime runs a side with start() and
/// finish() on the rank's own thread (HaloUpdater::start_rank/finish_rank
/// per exchange); the lockstep node runs it phase by phase over all sides
/// with the same HaloUpdater stages. Pack and unpack never throw, so they
/// may run inside a parallel region; everything that can fail runs in the
/// serial phases.
class NodeSide {
 public:
  NodeSide(const HaloUpdater& halo, const ir::SNode& node, RankDomain& rd, int rank, Comm& comm)
      : halo_(&halo), rank_(rank), comm_(&comm),
        kind_(node.halo_vector ? HaloUpdater::Kind::Vector : HaloUpdater::Kind::Scalar) {
    CY_REQUIRE_MSG(!node.halo_vector || node.halo_fields.size() % 2 == 0,
                   "vector halo exchange needs (u, v) pairs");
    fields_.reserve(node.halo_fields.size());
    for (const auto& name : node.halo_fields) fields_.push_back(&rd.catalog->at(name));
  }

  // --- Concurrent runtime: post the sends (pack included, so the source
  // cells may be overwritten as soon as start() returns); receive, unpack
  // and corner-fill (blocks under ConcurrentComm until the neighbors'
  // messages arrive).
  void start() {
    for (size_t e = 0; e < exchanges(); ++e) halo_->start_rank(rank_, kind_, fields(e), *comm_);
  }
  void finish() {
    for (size_t e = 0; e < exchanges(); ++e) {
      halo_->finish_rank(rank_, kind_, fields(e), *comm_);
      fill_corners(e);
    }
  }

  // --- Lockstep phases.
  void stage() {
    msgs_.clear();
    for (size_t e = 0; e < exchanges(); ++e) msgs_.push_back(halo_->stage(rank_, kind_, fields(e)));
  }
  void pack() {
    for (size_t e = 0; e < exchanges(); ++e) halo_->pack(rank_, fields(e), msgs_[e]);
  }
  void post() {
    for (auto& m : msgs_) halo_->post(rank_, m, *comm_);
  }
  void receive() {
    msgs_.clear();
    for (size_t e = 0; e < exchanges(); ++e) {
      msgs_.push_back(halo_->receive(rank_, kind_, fields(e), *comm_));
    }
  }
  void unpack() {
    for (size_t e = 0; e < exchanges(); ++e) {
      halo_->unpack(rank_, fields(e), msgs_[e]);
      fill_corners(e);
    }
  }
  void release() {
    for (auto& m : msgs_) halo_->release(rank_, m);
  }

  /// Values the staged messages carry.
  [[nodiscard]] size_t values() const {
    size_t n = 0;
    for (const auto& m : msgs_) n += m.values;
    return n;
  }

 private:
  [[nodiscard]] size_t exchanges() const {
    return kind_ == HaloUpdater::Kind::Vector ? fields_.size() / 2 : 1;
  }
  [[nodiscard]] std::span<FieldD* const> fields(size_t e) const {
    if (kind_ == HaloUpdater::Kind::Scalar) return fields_;
    return std::span<FieldD* const>(fields_).subspan(2 * e, 2);
  }
  /// Cube corners of exchange e: u from the i-edge halos and v from the
  /// j-edge halos of a vector pair, every scalar field from its i-edges.
  void fill_corners(size_t e) {
    if (kind_ == HaloUpdater::Kind::Vector) {
      halo_->fill_cube_corners_rank(rank_, *fields_[2 * e], CornerFill::XDir);
      halo_->fill_cube_corners_rank(rank_, *fields_[2 * e + 1], CornerFill::YDir);
      return;
    }
    for (FieldD* f : fields_) halo_->fill_cube_corners_rank(rank_, *f, CornerFill::XDir);
  }

  const HaloUpdater* halo_;
  int rank_;
  Comm* comm_;
  HaloUpdater::Kind kind_;
  std::vector<FieldD*> fields_;
  std::vector<HaloUpdater::Messages> msgs_;
};

/// Post rank `rank`'s sends for one halo-exchange node.
void start_halo_node_rank(const HaloUpdater& halo, const ir::SNode& node, RankDomain& rd,
                          int rank, Comm& comm) {
  NodeSide(halo, node, rd, rank, comm).start();
}

/// Receive, unpack and corner-fill rank `rank`'s side of one halo-exchange
/// node.
void finish_halo_node_rank(const HaloUpdater& halo, const ir::SNode& node, RankDomain& rd,
                           int rank, Comm& comm) {
  NodeSide(halo, node, rd, rank, comm).finish();
}

/// One lockstep halo node over many rank sides (every rank of one model, or
/// every (member, rank) of a batch), in four phases: pack every side in
/// parallel; post all sends serially in side order (SimComm is not
/// thread-safe, and the order keeps each channel's FIFO sequence and the
/// fault decisions keyed on it); receive serially; unpack and corner-fill in
/// parallel. A side writes only its own rank's fields and buffers, so the
/// result is bitwise independent of the team size. Buffers are staged and
/// released on the calling thread, so workers never allocate. The team
/// forks only when the node moves at least kHaloForkValues values.
void exchange_sides(std::vector<NodeSide>& sides, int threads) {
  size_t values = 0;
  for (auto& side : sides) {
    side.stage();
    values += side.values();
  }
  const long n = static_cast<long>(sides.size());
  const bool fork = threads > 1 && values >= kHaloForkValues;
#pragma omp parallel for num_threads(threads) if (fork) schedule(dynamic)
  for (long i = 0; i < n; ++i) sides[static_cast<size_t>(i)].pack();
  for (auto& side : sides) side.post();
  for (auto& side : sides) side.receive();
#pragma omp parallel for num_threads(threads) if (fork) schedule(dynamic)
  for (long i = 0; i < n; ++i) sides[static_cast<size_t>(i)].unpack();
  for (auto& side : sides) side.release();
}

/// One rank side of a compute state: the program copy that runs it and the
/// rank's catalog and domain.
struct ComputeSide {
  const ir::Program* program;
  RankDomain* rd;
};

/// Run compute state `sidx` on every side, on a team of `threads` (each
/// launch on a team of one), or in side order with each launch on the full
/// team. The team forks only on the OpenMP and Jit backends (the
/// Interpreter stays the serial oracle, Tape stays serial) and never for a
/// state with a Callback node (a callback may observe anything, rank order
/// included). There is no volume grain: forking won at every state size
/// the models build (DESIGN.md section 8). Each side writes only its own
/// catalog, the executors are shared read-only (prepare_state builds them
/// first, on this thread), temporaries come from each thread's own
/// Workspace and a launch reads only temporary cells it wrote or zeroed,
/// and a launch's values do not depend on its team size, so the result is
/// bitwise the same at any team size.
void run_compute_state(std::vector<ComputeSide>& sides, int sidx, int threads) {
  const ir::State& st = sides.front().program->states()[static_cast<size_t>(sidx)];
  bool forkable = threads > 1 && sides.size() > 1;
  for (const auto& node : st.nodes) forkable &= node.kind != ir::SNode::Kind::Callback;
  for (const auto& side : sides) {
    const exec::ExecBackend b = side.program->run_options().backend;
    forkable &= b == exec::ExecBackend::OpenMP || b == exec::ExecBackend::Jit;
  }
  if (!forkable) {
    for (auto& side : sides) side.program->execute_state(sidx, *side.rd->catalog, side.rd->dom);
    return;
  }
  for (auto& side : sides) side.program->prepare_state(sidx);
  // An exception must not leave the region: keep each side's, rethrow the
  // first in side order.
  const long n = static_cast<long>(sides.size());
  std::vector<std::exception_ptr> errors(sides.size());
#pragma omp parallel for num_threads(threads) schedule(dynamic)
  for (long i = 0; i < n; ++i) {
    ComputeSide& side = sides[static_cast<size_t>(i)];
    try {
      side.program->execute_state(sidx, *side.rd->catalog, side.rd->dom);
    } catch (...) {
      errors[static_cast<size_t>(i)] = std::current_exception();
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Append one side of halo node `node` per rank of `ranks`, in rank order.
void add_sides(std::vector<NodeSide>& sides, const HaloUpdater& halo, const ir::SNode& node,
               std::vector<RankDomain>& ranks, Comm& comm) {
  for (size_t r = 0; r < ranks.size(); ++r) {
    sides.emplace_back(halo, node, ranks[r], static_cast<int>(r), comm);
  }
}

}  // namespace

void run_halo_node(const HaloUpdater& halo, const ir::SNode& node,
                   std::vector<RankDomain>& ranks, Comm& comm) {
  std::vector<NodeSide> sides;
  add_sides(sides, halo, node, ranks, comm);
  exchange_sides(sides, halo.num_threads());
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
      // One exchange per node over every (instance, rank) side: each
      // instance's comm still sees its ranks' sends and receives in the
      // order of its solo pass.
      for (const auto& node : st.nodes) {
        std::vector<NodeSide> sides;
        for (size_t m = 0; m < n; ++m) add_sides(sides, *halos[m], node, *ranks[m], *comms[m]);
        exchange_sides(sides, halos[0]->num_threads());
      }
      continue;
    }
    std::vector<ComputeSide> sides;
    for (size_t m = 0; m < n; ++m) {
      for (auto& rd : *ranks[m]) sides.push_back(ComputeSide{programs[m], &rd});
    }
    run_compute_state(sides, sidx, halos[0]->num_threads());
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
      return str::numbered("#", n) + ":" + name;
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

  // One program copy per rank, each with its own run options and executor
  // caches. The copy shares the stencil IR (shared_ptr); the executors are
  // immutable too and could be shared, but each copy still builds its own.
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

std::string json_escape(const std::string& s) {
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
}

void write_channel_and_health_json(std::ostream& os, const ReliabilityCounters& c,
                                   const std::vector<RankHealth>& health) {
  os << ",\"channel\":{\"reliable_sends\":" << c.reliable_sends
     << ",\"retransmits\":" << c.retransmits << ",\"corrupt_detected\":" << c.corrupt_detected
     << ",\"dups_dropped\":" << c.dups_dropped << ",\"reorders_healed\":" << c.reorders_healed
     << ",\"drops_injected\":" << c.drops_injected << ",\"dups_injected\":" << c.dups_injected
     << ",\"reorders_injected\":" << c.reorders_injected
     << ",\"corrupts_injected\":" << c.corrupts_injected
     << ",\"delays_injected\":" << c.delays_injected
     << ",\"faults_injected\":" << c.faults_injected() << "}";
  os << ",\"health\":[";
  for (size_t r = 0; r < health.size(); ++r) {
    const RankHealth& h = health[r];
    if (r) os << ",";
    os << "{\"rank\":" << h.rank << ",\"last_seen_step\":" << h.last_seen_step
       << ",\"heartbeats\":" << h.heartbeats << ",\"ewma_step_seconds\":" << h.ewma_step_seconds
       << "}";
  }
  os << "]";
}

std::string run_report_to_json(const RunReport& report) {
  std::ostringstream os;
  os << "{\"ok\":" << (report.ok ? "true" : "false")
     << ",\"steps_completed\":" << report.steps_completed << ",\"restarts\":" << report.restarts
     << ",\"checkpoints\":" << report.checkpoints
     << ",\"rolled_back_steps\":" << report.rolled_back_steps << ",\"failure\":\""
     << json_escape(report.failure) << "\"";
  write_channel_and_health_json(os, report.channel, report.health);
  os << "}";
  return os.str();
}

}  // namespace cyclone::comm
