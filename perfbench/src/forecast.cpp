// forecast_mix: an in-process ensemble::ForecastService with one worker,
// driven closed-loop by kClients client threads (each sends its next request
// only after its previous reply, like forecast_server clients). Every
// returned member is checked bit for bit against the same member spec run
// solo on the OpenMP engine at set-up.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/exec/jit/cache.hpp"
#include "core/util/rng.hpp"
#include "ensemble/service.hpp"
#include "ensemble/verify_ensemble.hpp"
#include "models.hpp"

namespace perfbench {

using namespace cyclone;

namespace {

constexpr int kClients = 3;
constexpr int kPoolSize = 8;  ///< seeds requests draw from, so member specs repeat
constexpr int kMaxMembers = 4;
constexpr int kRequestSteps = 2;
constexpr int kRanks = 6;
constexpr double kAmplitude = 1e-3;
/// Machine-speed probe shaped like a c12z8 request on 6 ranks; see
/// bench.hpp. Probed in blocks of kProbeBlockSeconds between services.
constexpr ProbeShape kProbe{6, 12, 8, 16, 5.0};
constexpr double kProbeBlockSeconds = 0.3;
constexpr const char* kConfig =
    "swe c12 hill t1 + dycore c12z8 baro t1, 6 ranks, 2 steps, members 1-4, 8-seed pool, "
    "3 clients, 1 worker";

swe::SweConfig swe_config() { return ensemble::standard_swe_config(12, 1); }
fv3::FvConfig dycore_config() { return ensemble::standard_dycore_config(12, 8, 1); }

ensemble::ForecastRequest make_request(bool dycore, uint64_t seed, int members) {
  ensemble::ForecastRequest q;
  q.core = dycore ? "dycore" : "swe";
  q.ic = dycore ? "baro" : "hill";
  q.npx = 12;
  q.npz = 8;
  q.ntracers = 1;
  q.members = members;
  q.seed = seed;
  q.steps = kRequestSteps;
  q.backend = exec::ExecBackend::Jit;
  return q;
}

/// One client's request stream, drawn in blocks of eight: six SWE and two
/// dycore requests with member counts 1-4 twice, shuffled, each naming a
/// slot of the seed pool. The shape of the stream (order, cores, member
/// counts, pool slots) comes from fixed generators, so every workload seed
/// offers the same load and the same coalescing and deduplication
/// opportunities; the workload seed picks the pool's perturbation seeds.
/// All clients share one order of cores and member counts (only the pool
/// slots differ), so clients that get their replies together ask for the
/// same shape next and their requests can coalesce.
/// On a 4-vCPU Xeon VM, the quartile spread of p90 latency across five
/// 20-second runs was 32% of the median with a seeded shape and 6% with a
/// fixed one.
class RequestStream {
 public:
  RequestStream(int client, const std::vector<uint64_t>& pool)
      : order_rng_(0x5EEDF0CA57ull),
        rng_(Rng::derive(0x5EEDF0CA57ull, static_cast<uint64_t>(client))),
        pool_(pool) {}

  ensemble::ForecastRequest next() {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }

 private:
  static void shuffle(std::vector<int>& v, Rng& rng) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
  }

  void refill() {
    std::vector<int> dycore = {0, 0, 0, 0, 0, 0, 1, 1};
    std::vector<int> members = {1, 2, 3, 4, 1, 2, 3, 4};
    shuffle(dycore, order_rng_);
    shuffle(members, order_rng_);
    block_.clear();
    for (size_t i = 0; i < dycore.size(); ++i) {
      block_.push_back(make_request(dycore[i] != 0, pool_[rng_.next_below(pool_.size())],
                                    members[i]));
    }
    pos_ = 0;
  }

  Rng order_rng_;  ///< the same sequence in every client
  Rng rng_;
  std::vector<uint64_t> pool_;
  std::vector<ensemble::ForecastRequest> block_;
  size_t pos_ = 0;
};

template <class Model>
std::vector<uint64_t> solo_checksums(const typename ensemble::ModelTraits<Model>::Config& cfg,
                                     const std::string& ic, const ensemble::MemberSpec& spec,
                                     const exec::RunOptions& run) {
  auto model = ensemble::solo_member<Model>(cfg, kRanks, run, ic, spec, kAmplitude);
  for (int s = 0; s < kRequestSteps; ++s) model->step();
  return checksums(*model, ensemble::ModelTraits<Model>::prognostics(cfg));
}

/// Checksums of every (core, member spec) the streams can ask for, each run
/// solo through the plain lockstep scheduler on the OpenMP engine.
class References {
 public:
  References(const std::vector<uint64_t>& pool, int threads) {
    exec::RunOptions run;
    run.backend = exec::ExecBackend::OpenMP;
    run.num_threads = threads;
    for (uint64_t seed : pool) {
      for (int i = 0; i < kMaxMembers; ++i) {
        const ensemble::MemberSpec spec{seed, i};
        sums_[{false, seed, i}] = solo_checksums<swe::SweModel>(swe_config(), "hill", spec, run);
        sums_[{true, seed, i}] =
            solo_checksums<fv3::DistributedModel>(dycore_config(), "baro", spec, run);
      }
    }
  }

  [[nodiscard]] const std::vector<uint64_t>* find(bool dycore,
                                                  const ensemble::MemberSpec& spec) const {
    const auto it = sums_.find({dycore, spec.seed, spec.index});
    return it == sums_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::tuple<bool, uint64_t, int>, std::vector<uint64_t>> sums_;
};

bool matches(const References& refs, const ensemble::ForecastRequest& q,
             const ensemble::ForecastResult& r) {
  if (!r.ok || r.members.size() != static_cast<size_t>(q.members)) return false;
  for (int i = 0; i < q.members; ++i) {
    const ensemble::MemberForecast& member = r.members[static_cast<size_t>(i)];
    if (!(member.spec == ensemble::MemberSpec{q.seed, i})) return false;
    const std::vector<uint64_t>* want = refs.find(q.core == "dycore", member.spec);
    if (want == nullptr || want->size() != member.fields.size()) return false;
    for (size_t f = 0; f < want->size(); ++f) {
      if (member.fields[f].checksum != (*want)[f]) return false;
    }
  }
  return true;
}

struct Sample {
  double latency_s = 0;  ///< submit -> result, as the client sees it
  double queue_s = 0;
  double run_s = 0;
  int members = 0;
  bool ok = false;
};

/// Joins every client before the data they use goes out of scope, on
/// exception paths too.
struct JoinAll {
  std::vector<std::thread>& threads;
  ~JoinAll() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

/// The closed loop: clients stop sending once `seconds` have passed; the
/// loop ends with the last reply.
std::vector<Sample> closed_loop(ensemble::ForecastService& service, const References& refs,
                                const std::vector<uint64_t>& pool, const Options& opt,
                                double seconds, Tracer& tracer, double& wall_s) {
  std::vector<std::vector<Sample>> per_client(kClients);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> clients;
    JoinAll join{clients};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RequestStream stream(c, pool);
        std::vector<Sample>& samples = per_client[static_cast<size_t>(c)];
        do {
          const ensemble::ForecastRequest q = stream.next();
          Sample s;
          s.members = q.members;
          Span span(&tracer, "request." + q.core, c + 1);
          try {
            ensemble::ForecastResult r = service.submit(q).result.get();
            s.latency_s = span.stop();
            s.queue_s = r.queue_seconds;
            s.run_s = r.run_seconds;
            if (opt.corrupt && c == 0 && samples.empty() && r.ok && !r.members.empty() &&
                !r.members[0].fields.empty()) {
              r.members[0].fields[0].checksum ^= 1u;
            }
            s.ok = matches(refs, q, r);
          } catch (const std::exception&) {
            s.latency_s = span.stop();
          }
          samples.push_back(s);
        } while (Clock::now() < deadline);
      });
    }
  }
  wall_s = seconds_since(t0);
  std::vector<Sample> all;
  for (const auto& samples : per_client) all.insert(all.end(), samples.begin(), samples.end());
  return all;
}

/// EnsembleRunner build / init / run for one request shape of kMaxMembers
/// members, median of three, every member checked against its solo run.
template <class Model>
void ensemble_layer(const std::string& shape,
                    const typename ensemble::ModelTraits<Model>::Config& cfg,
                    const std::string& ic, bool dycore, uint64_t seed, const References& refs,
                    int threads, Tracer& tracer, RunResult& res) {
  std::vector<double> build, init, step;
  const std::vector<std::string> prognostics = ensemble::ModelTraits<Model>::prognostics(cfg);
  for (int rep = 0; rep < 3; ++rep) {
    ensemble::EnsembleOptions eo;
    eo.members = ensemble::default_members(seed, kMaxMembers);
    eo.amplitude = kAmplitude;
    eo.num_ranks = kRanks;
    eo.run = jit_run(threads);
    Span b(&tracer, "ensemble." + shape + ".build");
    ensemble::EnsembleRunner<Model> runner(cfg, std::move(eo));
    build.push_back(b.stop());
    {
      Span s(&tracer, "ensemble." + shape + ".init");
      runner.init(ic);
      init.push_back(s.stop());
    }
    {
      Span s(&tracer, "ensemble." + shape + ".run");
      runner.run(kRequestSteps);
      step.push_back(s.stop() / kRequestSteps);
    }
    for (int m = 0; m < runner.members(); ++m) {
      const std::vector<uint64_t>* want =
          refs.find(dycore, runner.options().members[static_cast<size_t>(m)]);
      res.check(want != nullptr && checksums(runner.member(m), prognostics) == *want,
                "ensemble " + shape + " member " + std::to_string(m));
    }
  }
  std::printf("ensemble %s m%d: build %.2f ms, init %.2f ms, step %.2f ms (median of 3)\n",
              shape.c_str(), kMaxMembers, 1e3 * quantile(build, 0.5), 1e3 * quantile(init, 0.5),
              1e3 * quantile(step, 0.5));
  res.add("ensemble." + shape + ".build_ms", 1e3 * quantile(build, 0.5), "ms");
  res.add("ensemble." + shape + ".init_ms", 1e3 * quantile(init, 0.5), "ms");
  res.add("ensemble." + shape + ".step_ms", 1e3 * quantile(step, 0.5), "ms");
}

}  // namespace

void prepare_forecast(const Options& opt) {
  Record rec;
  rec["config"] = kConfig;
  const Clock::time_point t0 = Clock::now();
  {
    swe::SweModel model(swe_config(), kRanks);
    model.set_run_options(jit_run(opt.threads));
    model.program().precompile();
  }
  {
    fv3::DistributedModel model(dycore_config(), kRanks);
    model.set_run_options(jit_run(opt.threads));
    model.program().precompile();
  }
  rec["jit.compile_s"] = std::to_string(seconds_since(t0));
  const exec::jit::CacheStats st = exec::jit::KernelCache::global().stats();
  if (st.compiles + st.disk_hits < 2) {
    throw std::runtime_error("no native JIT module was built (is a host compiler available?)");
  }
  rec["jit.cold_compiles"] = std::to_string(st.compiles);
  prime_copy_roof(opt.threads);
  write_record(prep_path(opt), rec);
  std::printf("prepared %s: cold compile %s s\n", opt.workload.c_str(),
              rec["jit.compile_s"].c_str());
}

RunResult run_forecast(const Options& opt, const Context& ctx, Tracer& tracer) {
  const Record prep = read_record(prep_path(opt));
  require_config(prep, kConfig);
  RunResult res;
  res.context.emplace_back("config", kConfig);

  std::vector<uint64_t> pool;
  for (int i = 0; i < kPoolSize; ++i) pool.push_back(Rng::mix(opt.seed, 1000 + i));
  const Clock::time_point tr = Clock::now();
  const References refs(pool, opt.threads);
  std::printf("solo references: %d member specs x 2 cores in %.2f s\n", kPoolSize * kMaxMembers,
              seconds_since(tr));

  ensemble::ForecastService::Options sopts;
  sopts.num_ranks = kRanks;
  sopts.workers = 1;
  sopts.amplitude = kAmplitude;
  sopts.run.num_threads = opt.threads;

  // Set-up: service construction plus one priming request of each shape.
  // It drops the JIT's in-memory module table first, so the modules load
  // from the warm disk cache.
  std::vector<double> setup_s;
  auto fresh = [&] {
    exec::jit::KernelCache::global().clear_memory();
    Span span(&tracer, "service.setup");
    auto service = std::make_unique<ensemble::ForecastService>(sopts);
    for (bool dycore : {false, true}) {
      const ensemble::ForecastRequest q = make_request(dycore, pool[0], 1);
      Span prime(&tracer, "service.prime." + q.core);
      res.check(matches(refs, q, service->submit(q).result.get()), "priming request");
    }
    setup_s.push_back(span.stop());
    return service;
  };
  {
    swe::SweModel swe(swe_config(), kRanks);
    fv3::DistributedModel dycore(dycore_config(), kRanks);
    const double sb = model_bytes(swe), db = model_bytes(dycore);
    std::printf("working set (computed): %.2f MiB per SWE member, %.2f MiB per dycore member; "
                "%d concurrent requests of up to %d members need at most %.1f MiB vs LLC %s\n",
                sb / (1 << 20), db / (1 << 20), kClients, kMaxMembers,
                kClients * kMaxMembers * std::max(sb, db) / (1 << 20), ctx.llc_text.c_str());
    res.context.emplace_back("working_set_bytes_per_member",
                             std::to_string(static_cast<long>(sb)) + " swe, " +
                                 std::to_string(static_cast<long>(db)) + " dycore");
  }

  std::unique_ptr<ensemble::ForecastService> service;
  ensemble::ServiceStats before, after;
  std::vector<Sample> samples;
  double wall = 0, scaled_wall = 0;
  long batches = 0;
  if (opt.trace) {
    service = fresh();
    before = service->stats();
    samples = closed_loop(*service, refs, pool, opt, opt.seconds / 2, tracer, wall);
    after = service->stats();
    batches = after.batches - before.batches;
  } else {
    // The measured loop is split evenly over kSetupReps services, each set
    // up afresh (and timed as set-up). A probe block runs before the first
    // and after each one, once that service is gone: a live service, even
    // an idle one, made the probe's passes several times slower. A slice's
    // times are scaled by the probe's reference pass time over the mean of
    // the two blocks around it.
    auto probe_block = [&] {
      Probe probe(kProbe, opt.threads);
      std::vector<double> passes;
      const Clock::time_point t0 = Clock::now();
      do {
        passes.push_back(probe.pass());
      } while (seconds_since(t0) < kProbeBlockSeconds);
      return 1e3 * quantile(passes, 0.5);
    };
    std::vector<double> probe_ms{probe_block()};
    Options slice_opt = opt;
    for (int m = 0; m < kSetupReps; ++m) {
      service = fresh();
      const long batches0 = service->stats().batches;
      double w = 0;
      std::vector<Sample> part =
          closed_loop(*service, refs, pool, slice_opt, opt.seconds / kSetupReps, tracer, w);
      batches += service->stats().batches - batches0;
      slice_opt.corrupt = false;
      service.reset();
      probe_ms.push_back(probe_block());
      const double scale = kProbe.reference_ms / (0.5 * (probe_ms[m] + probe_ms[m + 1]));
      for (Sample& x : part) {
        x.latency_s *= scale;
        x.queue_s *= scale;
        x.run_s *= scale;
        samples.push_back(x);
      }
      wall += w;
      scaled_wall += w * scale;
    }
    std::printf("raw: %.3f requests/s (unscaled); machine-speed probe: %zu blocks, median %.3f ms "
                "vs reference %.3f ms\n",
                static_cast<double>(samples.size()) / wall, probe_ms.size(),
                quantile(probe_ms, 0.5), kProbe.reference_ms);
    res.context.emplace_back("probe_reference_ms", std::to_string(kProbe.reference_ms));
    res.context.emplace_back("probe_median_ms", std::to_string(quantile(probe_ms, 0.5)));
  }
  std::vector<double> latency, queue, run, step;
  double member_steps = 0;
  for (const Sample& s : samples) {
    res.check(s.ok, "forecast request");
    latency.push_back(s.latency_s);
    queue.push_back(s.queue_s);
    run.push_back(s.run_s);
    step.push_back(s.run_s / kRequestSteps);
    member_steps += s.members * kRequestSteps;
  }
  std::printf("served %zu requests (%ld batches) in %.2f s with %d closed-loop clients\n",
              samples.size(), batches, wall, kClients);

  if (!opt.trace) {
    res.add("setup_s", quantile(setup_s, 0.5), "s");
    res.add("step_ms.p50", 1e3 * quantile(step, 0.5), "ms");
    res.add("step_ms.p90", 1e3 * quantile(step, 0.9), "ms");
    res.add("latency_ms.p50", 1e3 * quantile(latency, 0.5), "ms");
    res.add("latency_ms.p90", 1e3 * quantile(latency, 0.9), "ms");
    res.add("req_per_s", static_cast<double>(samples.size()) / scaled_wall, "1/s");
    res.add("member_steps_per_s", member_steps / scaled_wall, "1/s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  const double completed = static_cast<double>(after.completed - before.completed);
  res.add("service.queue_ms.p50", 1e3 * quantile(queue, 0.5), "ms");
  res.add("service.queue_ms.p90", 1e3 * quantile(queue, 0.9), "ms");
  res.add("service.run_ms.p50", 1e3 * quantile(run, 0.5), "ms");
  res.add("service.batch_members.mean",
          static_cast<double>(after.member_steps - before.member_steps) / kRequestSteps /
              static_cast<double>(batches),
          "count");
  res.add("service.coalesce_ratio",
          static_cast<double>(after.coalesced_requests - before.coalesced_requests) / completed,
          "ratio");
  res.add("service.busy_frac", (after.busy_seconds - before.busy_seconds) / wall, "ratio");
  service.reset();

  ensemble_layer<swe::SweModel>("swe", swe_config(), "hill", false, pool[1], refs, opt.threads,
                                tracer, res);
  ensemble_layer<fv3::DistributedModel>("dycore", dycore_config(), "baro", true, pool[1], refs,
                                        opt.threads, tracer, res);

  // The exec, halo and model layers as the dycore request shape uses them.
  const CopyRoof roof = measure_copy_roof(opt.threads, ctx.llc_bytes, tracer);
  add_roof_metrics(res, roof, ctx);
  const fv3::FvConfig cfg = dycore_config();
  const ensemble::MemberSpec control{pool[0], 0};
  auto init = [control](fv3::DistributedModel& model) {
    ensemble::apply_initial_condition(model, "baro");
    ensemble::perturb_model(model, control, kAmplitude);
  };
  Ready ready = set_up(cfg, kRanks, init, *refs.find(true, control), opt.threads, tracer);
  layer_sweep(ready, opt, opt.seconds / 2, roof, tracer, res);
  res.add("model.build_ms", 1e3 * ready.build_s, "ms");
  res.add("model.init_ms", 1e3 * ready.init_s, "ms");
  add_jit_metrics(res, prep, ready.precompile_s);
  return res;
}

}  // namespace perfbench
