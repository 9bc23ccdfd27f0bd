#include "ensemble/service.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>

#include "core/util/error.hpp"

namespace cyclone::ensemble {

using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The roster a request contributes: specs {seed, 0..members-1}.
void add_specs(std::vector<MemberSpec>& roster, const ForecastRequest& request) {
  for (int i = 0; i < request.members; ++i) {
    const MemberSpec spec{request.seed, i};
    if (std::find(roster.begin(), roster.end(), spec) == roster.end()) roster.push_back(spec);
  }
}

/// Parse a whole token as an int: "12abc", "" and out-of-range values fail.
bool parse_int(const std::string& text, int& out) {
  const char* end = text.data() + text.size();
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

/// Parse a whole token as an unsigned 64-bit value in C notation (decimal,
/// 0x hex or 0 octal), as the protocol's seeds are written.
bool parse_u64(const std::string& text, uint64_t& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  out = value;
  return true;
}

std::string validate(const ForecastRequest& r) {
  if (r.core != "swe" && r.core != "dycore") return "unknown core '" + r.core + "'";
  if (r.core == "swe" && r.ic != "hill" && r.ic != "vortex" && r.ic != "jet") {
    return "unknown SWE initial condition '" + r.ic + "'";
  }
  if (r.core == "dycore" && r.ic != "baro" && r.ic != "solid") {
    return "unknown dycore initial condition '" + r.ic + "'";
  }
  const auto out_of_range = [](const char* what, int value, int lo, int hi) {
    return what + std::string(" must be in [") + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got " + std::to_string(value);
  };
  if (r.members < 1 || r.members > kMaxRequestMembers) {
    return out_of_range("members", r.members, 1, kMaxRequestMembers);
  }
  if (r.steps < 1 || r.steps > kMaxRequestSteps) {
    return out_of_range("steps", r.steps, 1, kMaxRequestSteps);
  }
  if (r.npx < 4 || r.npx > kMaxRequestNpx) return out_of_range("npx", r.npx, 4, kMaxRequestNpx);
  if (r.core == "dycore" && (r.npz < 2 || r.npz > kMaxRequestNpz)) {
    return out_of_range("npz", r.npz, 2, kMaxRequestNpz);
  }
  if (r.ntracers < 1 || r.ntracers > kMaxRequestTracers) {
    return out_of_range("ntracers", r.ntracers, 1, kMaxRequestTracers);
  }
  return {};
}

}  // namespace

std::map<std::string, std::string> parse_kv(const std::vector<std::string>& tokens) {
  std::map<std::string, std::string> kv;
  for (const std::string& token : tokens) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

bool parse_request(const std::map<std::string, std::string>& kv, ForecastRequest& request,
                   std::string& error) {
  const auto find = [&kv](const char* key) {
    const auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  };
  const auto malformed = [&error](const char* key, const std::string& value) {
    error = "malformed value for '" + std::string(key) + "': '" + value + "'";
    return false;
  };
  if (const std::string* v = find("core")) request.core = *v;
  if (const std::string* v = find("ic")) request.ic = *v;
  for (auto [key, field] : {std::pair{"npx", &request.npx}, std::pair{"npz", &request.npz},
                            std::pair{"ntracers", &request.ntracers},
                            std::pair{"members", &request.members},
                            std::pair{"steps", &request.steps}}) {
    const std::string* v = find(key);
    if (v != nullptr && !parse_int(*v, *field)) return malformed(key, *v);
  }
  if (const std::string* v = find("seed"); v != nullptr && !parse_u64(*v, request.seed)) {
    return malformed("seed", *v);
  }
  if (const std::string* v = find("chaos")) {
    int chaos = 0;
    if (!parse_int(*v, chaos)) return malformed("chaos", *v);
    request.chaos = chaos != 0;
  }
  if (const std::string* v = find("backend"); v != nullptr &&
                                              !exec::parse_backend(*v, request.backend)) {
    error = "unknown backend '" + *v + "'";
    return false;
  }
  return true;
}

swe::SweConfig standard_swe_config(int npx, int ntracers) {
  swe::SweConfig cfg;
  cfg.npx = npx;
  cfg.ntracers = ntracers;
  return cfg;
}

fv3::FvConfig standard_dycore_config(int npx, int npz, int ntracers) {
  fv3::FvConfig cfg;
  cfg.npx = npx;
  cfg.npz = npz;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = ntracers;
  cfg.dt = 300.0;
  return cfg;
}

bool coalescible(const ForecastRequest& a, const ForecastRequest& b) {
  return a.core == b.core && a.ic == b.ic && a.npx == b.npx &&
         (a.core != "dycore" || a.npz == b.npz) && a.ntracers == b.ntracers &&
         a.steps == b.steps && a.backend == b.backend && a.chaos == b.chaos;
}

std::vector<size_t> coalesce_batch(const std::vector<ForecastRequest>& queue, int max_members) {
  std::vector<size_t> picked;
  if (queue.empty()) return picked;
  picked.push_back(0);  // the head never starves, whatever its size
  std::vector<MemberSpec> roster;
  add_specs(roster, queue[0]);
  for (size_t i = 1; i < queue.size(); ++i) {
    if (!coalescible(queue[0], queue[i])) continue;
    const size_t before = roster.size();
    add_specs(roster, queue[i]);
    if (static_cast<int>(roster.size()) > max_members) {
      roster.resize(before);  // over the cap — skip, a smaller one may still fit
      continue;
    }
    picked.push_back(i);
  }
  return picked;
}

ForecastService::ForecastService() : ForecastService(Options{}) {}

ForecastService::ForecastService(Options options) : options_(options) {
  CY_REQUIRE_MSG(options_.workers >= 1, "service needs at least one worker");
  CY_REQUIRE_MSG(options_.max_batch_members >= 1, "batch cap must be >= 1");
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ForecastService::~ForecastService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ForecastService::Ticket ForecastService::submit(const ForecastRequest& request) {
  Ticket ticket;
  std::promise<ForecastResult> promise;
  ticket.result = promise.get_future();
  const std::string error = validate(request);
  std::lock_guard<std::mutex> lock(mutex_);
  ticket.id = next_id_++;
  ++stats_.submitted;
  if (!error.empty()) {
    ++stats_.failed;
    ForecastResult result;
    result.error = error;
    result.sequence = next_sequence_++;
    promise.set_value(std::move(result));
    return ticket;
  }
  ++in_flight_;
  queue_.push_back(Pending{ticket.id, request, std::move(promise), Clock::now()});
  cv_.notify_one();
  return ticket;
}

bool ForecastService::cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    ForecastResult result;
    result.error = "cancelled";
    result.sequence = next_sequence_++;
    it->promise.set_value(std::move(result));
    queue_.erase(it);
    ++stats_.cancelled;
    --in_flight_;
    idle_cv_.notify_all();
    return true;
  }
  return false;
}

void ForecastService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

ServiceStats ForecastService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ForecastService::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      std::vector<ForecastRequest> requests;
      requests.reserve(queue_.size());
      for (const Pending& p : queue_) requests.push_back(p.request);
      const std::vector<size_t> picked = coalesce_batch(requests, options_.max_batch_members);
      batch.reserve(picked.size());
      for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
        batch.push_back(std::move(queue_[*it]));
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(*it));
      }
      std::reverse(batch.begin(), batch.end());
      ++stats_.batches;
      if (batch.size() > 1) stats_.coalesced_requests += static_cast<long>(batch.size());
    }
    run_batch(std::move(batch));
  }
}

ForecastService::ShapeKey ForecastService::shape_key(const ForecastRequest& r) const {
  // The SWE core has one level whatever npz says.
  return {r.core, r.npx, r.core == "dycore" ? r.npz : 1, r.ntracers, r.backend,
          options_.num_ranks};
}

ForecastService::CachedShape* ForecastService::find_shape(const ShapeKey& key) {
  const auto it = std::find_if(shapes_.begin(), shapes_.end(),
                               [&key](const CachedShape& shape) { return shape.key == key; });
  if (it == shapes_.end()) return nullptr;
  shapes_.splice(shapes_.begin(), shapes_, it);
  return &shapes_.front();
}

void ForecastService::remember(const ShapeKey& key, const std::string& ic,
                               const std::shared_ptr<const ir::Program>& program,
                               const std::shared_ptr<const InitialState>& initial) {
  CachedShape* shape = find_shape(key);
  if (shape == nullptr) {
    if (shapes_.size() == kShapeCacheCapacity) {
      shapes_.pop_back();
      ++stats_.cache_evictions;
    }
    shapes_.push_front(CachedShape{key, program, {}});
    shape = &shapes_.front();
  }
  if (initial) shape->initial.try_emplace(ic, initial);
}

namespace {

/// Run one batch. `program` and `initial` come in from the shape cache
/// (null on a miss) and go out as what the batch used: a miss fills them
/// with what the runner's member 0 built.
template <class Model>
void run_batch_core(const ForecastService::Options& options, const ForecastRequest& head,
                    const std::vector<MemberSpec>& roster,
                    std::shared_ptr<const ir::Program>& program,
                    std::shared_ptr<const InitialState>& initial,
                    std::vector<MemberForecast>& out, comm::RunReport& report) {
  typename ModelTraits<Model>::Config config;
  if constexpr (std::is_same_v<Model, fv3::DistributedModel>) {
    config = standard_dycore_config(head.npx, head.npz, head.ntracers);
  } else {
    config = standard_swe_config(head.npx, head.ntracers);
  }
  EnsembleOptions opts;
  opts.members = roster;
  opts.amplitude = options.amplitude;
  opts.num_ranks = options.num_ranks;
  opts.run = options.run;
  opts.run.backend = head.backend;
  opts.runtime = options.runtime;
  EnsembleRunner<Model> runner(config, std::move(opts), program.get());
  if (!program) program = std::make_shared<const ir::Program>(runner.member(0).program());
  runner.init(head.ic, initial);
  initial = runner.initial_state();
  if (head.chaos) {
    report = runner.run_resilient(head.steps);
    if (!report.ok) throw Error("resilient ensemble run failed: " + report.failure);
  } else {
    runner.run(head.steps);
    report.ok = true;
    report.steps_completed = head.steps;
  }
  const std::vector<std::string> prognostics = ModelTraits<Model>::prognostics(config);
  out.reserve(roster.size());
  for (int m = 0; m < runner.members(); ++m) {
    Model& model = runner.member(m);
    std::vector<verify::RankView> views;
    views.reserve(static_cast<size_t>(model.num_ranks()));
    for (int r = 0; r < model.num_ranks(); ++r) {
      const grid::RankInfo info = model.partitioner().info(r);
      views.push_back(verify::RankView{&model.state(r).catalog(), info.tile, info.i0, info.j0,
                                       info.ni, info.nj});
    }
    MemberForecast forecast;
    forecast.spec = roster[static_cast<size_t>(m)];
    for (const std::string& name : prognostics) {
      forecast.fields.push_back(
          verify::assemble_field(name, grid::kNumFaces, model.partitioner().n(), views));
    }
    out.push_back(std::move(forecast));
  }
}

}  // namespace

void ForecastService::run_batch(std::vector<Pending> batch) {
  const Clock::time_point start = Clock::now();
  const ForecastRequest& head = batch.front().request;
  std::vector<MemberSpec> roster;
  for (const Pending& p : batch) add_specs(roster, p.request);

  const ShapeKey key = shape_key(head);
  std::shared_ptr<const ir::Program> program;
  std::shared_ptr<const InitialState> initial;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const CachedShape* cached = find_shape(key)) {
      program = cached->program;
      const auto it = cached->initial.find(head.ic);
      if (it != cached->initial.end()) initial = it->second;
    }
  }
  const bool program_cached = program != nullptr;
  const bool initial_cached = initial != nullptr;

  std::vector<MemberForecast> outputs;
  comm::RunReport report;
  std::string error;
  try {
    if (head.core == "dycore") {
      run_batch_core<fv3::DistributedModel>(options_, head, roster, program, initial, outputs,
                                            report);
    } else {
      run_batch_core<swe::SweModel>(options_, head, roster, program, initial, outputs, report);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!program_cached && program) ++stats_.program_builds;
    if (!initial_cached && initial) ++stats_.ic_builds;
    if (program) remember(key, head.ic, program, initial);
  }
  const Clock::time_point end = Clock::now();
  const double run_seconds = seconds_between(start, end);

  for (Pending& p : batch) {
    ForecastResult result;
    result.queue_seconds = seconds_between(p.submitted, start);
    result.run_seconds = run_seconds;
    result.batch_members = static_cast<int>(roster.size());
    result.coalesced_requests = static_cast<int>(batch.size());
    result.report = report;
    if (error.empty()) {
      result.ok = true;
      result.members.reserve(static_cast<size_t>(p.request.members));
      for (int i = 0; i < p.request.members; ++i) {
        const MemberSpec spec{p.request.seed, i};
        const auto it = std::find_if(outputs.begin(), outputs.end(),
                                     [&](const MemberForecast& f) { return f.spec == spec; });
        CY_REQUIRE_MSG(it != outputs.end(), "batch lost a member spec");
        result.members.push_back(*it);  // shared members are copied per request
      }
    } else {
      result.error = error;
    }
    result.latency_seconds = seconds_between(p.submitted, Clock::now());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      result.sequence = next_sequence_++;
      if (error.empty()) {
        ++stats_.completed;
      } else {
        ++stats_.failed;
      }
      --in_flight_;
    }
    idle_cv_.notify_all();
    p.promise.set_value(std::move(result));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.member_steps += static_cast<long>(roster.size()) * head.steps;
  stats_.busy_seconds += run_seconds;
}

}  // namespace cyclone::ensemble
