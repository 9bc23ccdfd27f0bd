#include "comm/elastic.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "comm/simcomm.hpp"

namespace cyclone::comm {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear index of owned global cell (tile, k, gj, gi) in a GlobalField.
size_t global_index(int tile, int k, int gj, int gi, int levels, int n) {
  return ((static_cast<size_t>(tile) * levels + k) * n + gj) * n + gi;
}

}  // namespace

// --- MembershipPlan ---------------------------------------------------------

MembershipPlan MembershipPlan::parse(const std::string& script) {
  MembershipPlan plan;
  const auto parse_long = [](const std::string& s) -> long {
    size_t used = 0;
    long v = 0;
    bool ok = !s.empty();
    if (ok) {
      try {
        v = std::stol(s, &used);
      } catch (...) {
        ok = false;
      }
      ok = ok && used == s.size();
    }
    CY_REQUIRE_MSG(ok, "membership script token '" << s << "' is not an integer");
    return v;
  };
  size_t pos = 0;
  while (pos <= script.size()) {
    size_t comma = script.find(',', pos);
    if (comma == std::string::npos) comma = script.size();
    const std::string item = script.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t colon = item.find(':');
    CY_REQUIRE_MSG(colon != std::string::npos,
                   "membership event '" << item << "' is not step:ranks");
    MembershipEvent ev;
    ev.at_step = parse_long(item.substr(0, colon));
    ev.target_ranks = static_cast<int>(parse_long(item.substr(colon + 1)));
    CY_REQUIRE_MSG(ev.at_step >= 0, "membership step must be >= 0, got " << ev.at_step);
    plan.events.push_back(ev);
  }
  return plan;
}

// --- LoadBalancer -----------------------------------------------------------

void LoadBalancer::reset(int nranks) {
  ewma_.assign(static_cast<size_t>(nranks < 0 ? 0 : nranks), 0.0);
  observed_ = 0;
}

void LoadBalancer::observe(const std::vector<double>& step_seconds) {
  if (ewma_.size() != step_seconds.size()) reset(static_cast<int>(step_seconds.size()));
  // Alpha 0.3: a sustained straggler dominates its EWMA within ~warmup
  // steps, while a single noisy step decays quickly.
  for (size_t r = 0; r < ewma_.size(); ++r) {
    ewma_[r] = ewma_[r] <= 0.0 ? step_seconds[r] : 0.7 * ewma_[r] + 0.3 * step_seconds[r];
  }
  ++observed_;
}

double LoadBalancer::imbalance_ratio() const {
  if (ewma_.size() < 2) return 1.0;
  std::vector<double> sorted(ewma_);
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  if (median <= 0.0) return 1.0;
  return sorted.back() / median;
}

bool LoadBalancer::should_rebalance() const {
  return options_.enabled && observed_ >= options_.warmup_steps &&
         imbalance_ratio() > options_.trigger_ratio;
}

// --- assemble_owned ---------------------------------------------------------

std::vector<double> assemble_owned(const grid::Partitioner& part,
                                   const std::vector<RankDomain>& ranks,
                                   const std::string& name) {
  CY_REQUIRE_MSG(static_cast<int>(ranks.size()) == part.num_ranks(),
                 "assemble_owned roster mismatch");
  const int n = part.n();
  const int levels = ranks[0].catalog->at(name).shape().nk();
  std::vector<double> out(static_cast<size_t>(grid::kNumFaces) * levels * n * n, 0.0);
  for (int r = 0; r < part.num_ranks(); ++r) {
    const auto info = part.info(r);
    const FieldD& f = ranks[static_cast<size_t>(r)].catalog->at(name);
    for (int k = 0; k < levels; ++k) {
      for (int j = 0; j < info.nj; ++j) {
        for (int i = 0; i < info.ni; ++i) {
          out[global_index(info.tile, k, info.j0 + j, info.i0 + i, levels, n)] = f(i, j, k);
        }
      }
    }
  }
  return out;
}

// --- ElasticCheckpointStore -------------------------------------------------

void ElasticCheckpointStore::save(long step, const std::vector<RankDomain>& ranks) {
  gc();
  CY_REQUIRE_MSG(part_.has_value(), "elastic store needs set_roster before save");
  CY_REQUIRE_MSG(static_cast<int>(ranks.size()) == part_->num_ranks(),
                 "roster mismatch in elastic save");
  const int n = part_->n();
  snaps_.emplace_back();
  Snapshot& snap = snaps_.back();
  snap.step = step;
  snap.n = n;
  // If any at() below throws (a rank missing a field — the model of a crash
  // mid-migration), the snapshot stays behind incomplete; restore() skips it
  // and the next gc() reclaims it.
  for (const auto& name : ranks[0].catalog->names()) {
    const FieldShape& shape0 = ranks[0].catalog->at(name).shape();
    GlobalField g;
    g.name = name;
    g.levels = shape0.nk();
    g.halo = shape0.halo();
    g.layout = shape0.layout();
    g.align = shape0.alignment();
    g.data.assign(static_cast<size_t>(grid::kNumFaces) * g.levels * n * n, 0.0);
    for (int r = 0; r < part_->num_ranks(); ++r) {
      const auto info = part_->info(r);
      const FieldD& f = ranks[static_cast<size_t>(r)].catalog->at(name);
      CY_REQUIRE_MSG(f.shape().nk() == g.levels, "level count of '" << name
                                                 << "' differs across ranks");
      for (int k = 0; k < g.levels; ++k) {
        for (int j = 0; j < info.nj; ++j) {
          for (int i = 0; i < info.ni; ++i) {
            g.data[global_index(info.tile, k, info.j0 + j, info.i0 + i, g.levels, n)] =
                f(i, j, k);
          }
        }
      }
    }
    snap.fields.push_back(std::move(g));
  }
  snap.complete = true;
  ++saves_;
  while (static_cast<int>(snaps_.size()) > keep_last_) snaps_.pop_front();
}

long ElasticCheckpointStore::restore(std::vector<RankDomain>& ranks) {
  CY_REQUIRE_MSG(part_.has_value(), "elastic store needs set_roster before restore");
  CY_REQUIRE_MSG(static_cast<int>(ranks.size()) == part_->num_ranks(),
                 "roster mismatch in elastic restore");
  const Snapshot* snap = nullptr;
  for (auto it = snaps_.rbegin(); it != snaps_.rend(); ++it) {
    if (it->complete) {
      snap = &*it;
      break;
    }
  }
  CY_REQUIRE_MSG(snap != nullptr, "no complete checkpoint to restore");
  const int n = part_->n();
  CY_REQUIRE_MSG(snap->n == n, "checkpoint tile size " << snap->n
                                                       << " does not match roster tile size " << n);
  for (const auto& g : snap->fields) {
    for (int r = 0; r < part_->num_ranks(); ++r) {
      const auto info = part_->info(r);
      FieldCatalog& cat = *ranks[static_cast<size_t>(r)].catalog;
      if (!cat.contains(g.name)) {
        cat.create(g.name, FieldShape(info.ni, info.nj, g.levels, g.halo, g.layout, g.align));
      }
      FieldD& f = cat.at(g.name);
      CY_REQUIRE_MSG(f.shape().ni() == info.ni && f.shape().nj() == info.nj &&
                         f.shape().nk() == g.levels,
                     "field '" << g.name << "' shape does not match rank " << r);
      for (int k = 0; k < g.levels; ++k) {
        for (int j = 0; j < info.nj; ++j) {
          for (int i = 0; i < info.ni; ++i) {
            f(i, j, k) = g.data[global_index(info.tile, k, info.j0 + j, info.i0 + i, g.levels, n)];
          }
        }
      }
    }
  }
  ++restores_;
  return snap->step;
}

void ElasticCheckpointStore::gc() {
  for (auto it = snaps_.begin(); it != snaps_.end();) {
    it = it->complete ? std::next(it) : snaps_.erase(it);
  }
}

int ElasticCheckpointStore::retained() const {
  int count = 0;
  for (const auto& s : snaps_) count += s.complete ? 1 : 0;
  return count;
}

int ElasticCheckpointStore::partials() const {
  return static_cast<int>(snaps_.size()) - retained();
}

std::vector<long> ElasticCheckpointStore::retained_steps() const {
  std::vector<long> steps;
  for (const auto& s : snaps_) {
    if (s.complete) steps.push_back(s.step);
  }
  return steps;
}

// --- ElasticRuntime ---------------------------------------------------------

ElasticRuntime::ElasticRuntime(const ir::Program& program, int nk, int halo_width,
                               const grid::Partitioner& initial,
                               std::vector<FieldCatalog> catalogs, ElasticOptions options)
    : program_(program),
      nk_(nk),
      halo_width_(halo_width),
      options_(std::move(options)),
      store_(options_.keep_checkpoints),
      balancer_(options_.balancer) {
  CY_REQUIRE_MSG(static_cast<int>(catalogs.size()) == initial.num_ranks(),
                 "initial catalog count does not match the initial roster");
  // Warm the executors once: every roster's runtime copies program_ and
  // shares them.
  program_.set_run_options(options_.runtime.run);
  program_.precompile();
  part_ = std::make_unique<grid::Partitioner>(initial);
  halo_ = std::make_unique<HaloUpdater>(*part_, halo_width_);
  cats_ = std::move(catalogs);
  doms_ = launch_domains(*part_, nk_);
  ranks_ = bind_ranks(cats_, doms_);
  build_runtime();
  balancer_.reset(part_->num_ranks());
}

void ElasticRuntime::rebuild_roster(int target) {
  const int n = part_->n();
  part_ = std::make_unique<grid::Partitioner>(grid::Partitioner::for_ranks(n, target));
  halo_ = std::make_unique<HaloUpdater>(*part_, halo_width_);
  cats_ = std::vector<FieldCatalog>(static_cast<size_t>(target));
  doms_ = launch_domains(*part_, nk_);
  ranks_ = bind_ranks(cats_, doms_);
}

void ElasticRuntime::build_runtime() {
  RuntimeOptions ro = options_.runtime;
  ro.faults = rekey_plan(ro.faults, part_->num_ranks(), faults_cleared_);
  if (imbalance_cleared_) {
    ro.imbalance = ImbalancePlan{};
  } else if (ro.imbalance.slow_rank >= part_->num_ranks()) {
    ro.imbalance.slow_rank %= part_->num_ranks();  // survive re-rostering, like faults
  }
  rt_ = std::make_unique<ConcurrentRuntime>(program_, *halo_, ranks_, ro);
  rt_->set_step_index(global_step_);
}

void ElasticRuntime::refresh_halos() {
  // Replay every halo-exchange node of the program once through the
  // deterministic mailbox comm: exchanged fields get their halos rebuilt on
  // the new topology from the (just-scattered) owned cells — exactly the
  // values a same-roster static run would hold at this barrier. Halo cells
  // of never-exchanged fields stay zero; decomposition-invariant programs
  // (the only ones elastic runs admit) never read those before writing.
  SimComm sim(part_->num_ranks());
  for (const auto& st : program_.states()) {
    if (!is_halo_only(st)) continue;
    for (const auto& node : st.nodes) run_halo_node(*halo_, node, ranks_, sim);
  }
}

bool ElasticRuntime::resize(int target, const char* trigger, ElasticReport& report) {
  return do_resize(target, trigger, report, /*from_checkpoint=*/false);
}

bool ElasticRuntime::do_resize(int target, const char* trigger, ElasticReport& report,
                               bool from_checkpoint) {
  using Clock = std::chrono::steady_clock;
  ResizeRecord rec;
  rec.at_step = global_step_;
  rec.from_ranks = part_->num_ranks();
  rec.to_ranks = target;
  rec.trigger = trigger;
  if (const auto why = grid::Partitioner::validate_rank_count(part_->n(), target)) {
    rec.error = *why;
    report.resize_log.push_back(rec);
    ++report.rejected_resizes;
    return false;
  }

  // Quiesce + snapshot: rank threads are already joined (we sit between
  // steps), the channel is drained, so assembling owned cells here is a
  // globally consistent cut. Death-triggered resizes skip the snapshot and
  // fall back to the newest complete checkpoint instead.
  const auto t0 = Clock::now();
  store_.set_roster(*part_);
  if (!from_checkpoint) {
    store_.save(global_step_ - 1, ranks_);
    ++report.checkpoints;
  }
  const auto t1 = Clock::now();
  rec.snapshot_seconds = seconds_between(t0, t1);

  // Re-roster: tear down the epoch's runtime, recompute tile ownership,
  // rebuild per-rank catalogs, scatter the global snapshot onto them.
  report.channel += rt_->comm().reliability();
  rt_.reset();
  rebuild_roster(target);
  store_.set_roster(*part_);
  const long restored = store_.restore(ranks_);
  if (from_checkpoint) {
    report.rolled_back_steps += global_step_ - (restored + 1);
    global_step_ = restored + 1;
  }
  const auto t2 = Clock::now();

  // Refresh halos on the new topology, then prove no halo buffer leaked.
  refresh_halos();
  CY_REQUIRE_MSG(halo_->pool_outstanding() == 0,
                 "halo pool leak after resize: " << halo_->pool_outstanding() << " outstanding");
  const auto t3 = Clock::now();
  rec.refresh_seconds = seconds_between(t2, t3);

  // New concurrent runtime: one copy of program_, whose executors are
  // already built — counted as rebuild (rebalance) latency.
  build_runtime();
  const auto t4 = Clock::now();
  rec.rebuild_seconds = seconds_between(t1, t2) + seconds_between(t3, t4);

  report.resize_log.push_back(rec);
  ++report.resizes;
  balancer_.reset(part_->num_ranks());
  return true;
}

ElasticReport ElasticRuntime::run(int nsteps) {
  CY_REQUIRE_MSG(nsteps >= 0, "negative step count");
  ElasticReport report;
  const int interval = std::max(1, options_.checkpoint_interval);
  store_.set_roster(*part_);
  store_.save(global_step_ - 1, ranks_);
  ++report.checkpoints;

  // One-shot latches for scripted events: a voluntary drain happens once
  // even if a later rollback rewinds the step clock past its trigger.
  std::vector<char> fired(options_.plan.events.size(), 0);
  long rejoin_at = -1;
  int rejoin_to = 0;

  while (global_step_ < nsteps) {
    for (size_t e = 0; e < options_.plan.events.size(); ++e) {
      const MembershipEvent& ev = options_.plan.events[e];
      if (fired[e] || ev.at_step != global_step_) continue;
      fired[e] = 1;
      do_resize(ev.target_ranks, "script", report, /*from_checkpoint=*/false);
    }
    if (rejoin_at >= 0 && global_step_ >= rejoin_at) {
      rejoin_at = -1;
      if (do_resize(rejoin_to, "rejoin", report, /*from_checkpoint=*/false)) ++report.rejoins;
    }
    if (balancer_.should_rebalance()) {
      // Shed the straggler: the re-roster models replacing the slow node,
      // so the synthetic imbalance is cleared for all later epochs.
      imbalance_cleared_ = true;
      if (do_resize(part_->num_ranks(), "imbalance", report, /*from_checkpoint=*/false)) {
        ++report.rebalances;
      }
    }

    try {
      rt_->step();
    } catch (const std::exception& e) {
      ++report.deaths;
      faults_cleared_ = true;  // the one-shot failure was honored; future
                               // epochs rebuild with it cleared
      rt_->comm().reset_for_recovery();
      halo_->reset_pools();
      if (options_.on_death == DeathPolicy::Fail || report.restarts >= options_.max_restarts) {
        report.ok = false;
        report.failure = e.what();
        break;
      }
      ++report.restarts;
      if (options_.on_death == DeathPolicy::Rollback) {
        store_.set_roster(*part_);
        const long restored = store_.restore(ranks_);
        report.rolled_back_steps += global_step_ - (restored + 1);
        global_step_ = restored + 1;
        rt_->set_step_index(global_step_);
      } else {
        // Evict: shrink past the dead rank from the newest complete
        // checkpoint, then grow back once the replacement "arrives".
        const int before = part_->num_ranks();
        const int target =
            options_.evict_to_ranks > 0 ? options_.evict_to_ranks : grid::kNumFaces;
        if (!do_resize(target, "death", report, /*from_checkpoint=*/true)) {
          report.ok = false;
          report.failure = "eviction target invalid: " + report.resize_log.back().error;
          break;
        }
        rejoin_at = global_step_ + options_.rejoin_after_steps;
        rejoin_to = before;
      }
      continue;
    }

    ++global_step_;
    balancer_.observe(rt_->last_step_seconds());
    if (global_step_ % interval == 0) {
      store_.set_roster(*part_);
      store_.save(global_step_ - 1, ranks_);
      ++report.checkpoints;
    }
  }

  report.steps_completed = global_step_;
  report.channel += rt_->comm().reliability();
  report.health = rt_->rank_health();
  return report;
}

// --- JSON -------------------------------------------------------------------

std::string elastic_report_to_json(const ElasticReport& report) {
  std::ostringstream os;
  os << "{\"ok\":" << (report.ok ? "true" : "false")
     << ",\"steps_completed\":" << report.steps_completed << ",\"resizes\":" << report.resizes
     << ",\"rebalances\":" << report.rebalances << ",\"rejoins\":" << report.rejoins
     << ",\"deaths\":" << report.deaths << ",\"rejected_resizes\":" << report.rejected_resizes
     << ",\"restarts\":" << report.restarts << ",\"checkpoints\":" << report.checkpoints
     << ",\"rolled_back_steps\":" << report.rolled_back_steps << ",\"failure\":\""
     << json_escape(report.failure) << "\"";
  os << ",\"resize_log\":[";
  for (size_t i = 0; i < report.resize_log.size(); ++i) {
    const ResizeRecord& r = report.resize_log[i];
    if (i) os << ",";
    os << "{\"at_step\":" << r.at_step << ",\"from_ranks\":" << r.from_ranks
       << ",\"to_ranks\":" << r.to_ranks << ",\"trigger\":\"" << json_escape(r.trigger)
       << "\",\"error\":\"" << json_escape(r.error)
       << "\",\"snapshot_seconds\":" << r.snapshot_seconds
       << ",\"rebuild_seconds\":" << r.rebuild_seconds
       << ",\"refresh_seconds\":" << r.refresh_seconds
       << ",\"total_seconds\":" << r.total_seconds() << "}";
  }
  os << "]";
  write_channel_and_health_json(os, report.channel, report.health);
  os << "}";
  return os.str();
}

}  // namespace cyclone::comm
