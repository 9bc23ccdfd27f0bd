#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/verify/corpus.hpp"
#include "ensemble/ensemble.hpp"

namespace cyclone::ensemble {

/// The standard model configurations the service (and the ensemble corpus
/// scenarios) run — one source of truth so a served result is comparable to
/// a committed golden.
swe::SweConfig standard_swe_config(int npx, int ntracers);
fv3::FvConfig standard_dycore_config(int npx, int npz, int ntracers);

/// One forecast request: run `members` perturbed members of a model core
/// for `steps` and return each member's assembled prognostic fields.
struct ForecastRequest {
  std::string core = "swe";  ///< "swe" | "dycore"
  std::string ic = "hill";   ///< corpus IC vocabulary for the core
  int npx = 12;
  int npz = 4;  ///< dycore only
  int ntracers = 1;
  int members = 1;
  uint64_t seed = 0;
  int steps = 1;
  exec::ExecBackend backend = exec::ExecBackend::OpenMP;
  bool chaos = false;  ///< run through the fault-injected resilient runtime
};

/// Upper bounds ForecastService::submit enforces on every request.
/// Requests arrive untrusted over the socket protocol; the bounds keep them
/// out of the partitioner's and the field shapes' size arithmetic (a
/// request at every bound is still a large run: 64 members of a c48,
/// 64-level, 8-tracer dycore).
constexpr int kMaxRequestNpx = 48;
constexpr int kMaxRequestNpz = 64;
constexpr int kMaxRequestTracers = 8;
constexpr int kMaxRequestMembers = 64;
constexpr int kMaxRequestSteps = 1000;

/// The socket protocol (tools/forecast_server): split `key=value` tokens;
/// tokens without '=' are ignored.
std::map<std::string, std::string> parse_kv(const std::vector<std::string>& tokens);

/// Fill `request` from protocol keys (absent keys keep the request's
/// values). Every numeric value must parse as a whole token: "12abc" is
/// refused, not read as 12. Returns false with `error` set on a malformed
/// value or an unknown backend; ForecastService::submit checks ranges.
bool parse_request(const std::map<std::string, std::string>& kv, ForecastRequest& request,
                   std::string& error);

/// Two requests may share a batch iff everything that shapes the model run
/// matches; seed and member count may differ (member identity travels in
/// the MemberSpec, not the batch slot).
bool coalescible(const ForecastRequest& a, const ForecastRequest& b);

/// Batch-coalescing policy, a pure function so the scheduler is unit
/// testable: given the pending queue (FIFO), pick the queue head plus every
/// later request coalescible with it, in order, until adding one would
/// exceed `max_members` distinct member specs. Returns queue indices;
/// index 0 of the result is always 0 (the head never starves).
std::vector<size_t> coalesce_batch(const std::vector<ForecastRequest>& queue, int max_members);

/// One member's streamed payload: its spec plus the assembled (global,
/// decomposition-invariant) prognostic fields.
struct MemberForecast {
  MemberSpec spec;
  std::vector<verify::GoldenField> fields;
};

struct ForecastResult {
  bool ok = false;
  std::string error;
  std::vector<MemberForecast> members;  ///< one per requested member, in order
  double latency_seconds = 0;  ///< submit -> result ready
  double queue_seconds = 0;    ///< submit -> batch start
  double run_seconds = 0;      ///< model init + stepping of the serving batch
  int batch_members = 0;       ///< distinct member specs in the serving batch
  int coalesced_requests = 0;  ///< requests served by that batch
  long sequence = 0;           ///< global completion order (1-based)
  comm::RunReport report;      ///< chaos path accounting (restarts etc.)
};

struct ServiceStats {
  long submitted = 0;
  long completed = 0;
  long cancelled = 0;
  long failed = 0;
  long batches = 0;
  long coalesced_requests = 0;  ///< requests that shared a batch with another
  long member_steps = 0;
  double busy_seconds = 0;  ///< wall time workers spent running batches
  long program_builds = 0;   ///< batches that built their shape's program
  long ic_builds = 0;        ///< batches that evaluated their initial condition
  long cache_evictions = 0;  ///< shapes dropped from the shape cache
};

/// Async job-queue front-end over EnsembleRunner: submit() enqueues, worker
/// threads drain the queue, coalescing compatible requests into one batched
/// ensemble run (identical member specs are deduplicated — two clients
/// asking for the same member share one integration). Futures complete in
/// batch order, so a late-submitted request that coalesces with the running
/// head can finish before an earlier incompatible one.
///
/// A shape cache keeps, per model shape (core, npx, npz, ntracers, backend,
/// ranks), the prepared program and the unperturbed initial state of each
/// condition served, as the shape's first batch built them. Later batches
/// of the shape build no program and evaluate no initial condition: their
/// members copy both and only perturb. The cache holds the
/// kShapeCacheCapacity most recently used shapes.
class ForecastService {
 public:
  static constexpr size_t kShapeCacheCapacity = 4;

  struct Options {
    int num_ranks = 6;
    int workers = 1;
    int max_batch_members = 32;
    double amplitude = 1e-3;
    exec::RunOptions run{};          ///< base engine options; backend comes per request
    comm::RuntimeOptions runtime{};  ///< fault plan / recovery for chaos requests
  };

  struct Ticket {
    uint64_t id = 0;
    std::future<ForecastResult> result;
  };

  ForecastService();
  explicit ForecastService(Options options);
  ~ForecastService();  ///< drains the queue, then joins the workers

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  [[nodiscard]] const Options& options() const { return options_; }

  /// Validates eagerly: unknown core/ic/backend combinations fail the
  /// returned future immediately rather than poisoning a batch.
  Ticket submit(const ForecastRequest& request);

  /// Cancel a pending request. Returns true (and fails the ticket's future
  /// with "cancelled") iff the request had not yet been claimed by a
  /// worker; a request already in a running batch completes normally.
  bool cancel(uint64_t id);

  /// Block until every submitted request has completed.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Pending {
    uint64_t id = 0;
    ForecastRequest request;
    std::promise<ForecastResult> promise;
    std::chrono::steady_clock::time_point submitted;
  };

  using ShapeKey = std::tuple<std::string, int, int, int, exec::ExecBackend, int>;
  struct CachedShape {
    ShapeKey key;
    std::shared_ptr<const ir::Program> program;
    std::map<std::string, std::shared_ptr<const InitialState>> initial;  ///< by IC name
  };

  void worker_loop();
  void run_batch(std::vector<Pending> batch);
  [[nodiscard]] ShapeKey shape_key(const ForecastRequest& request) const;
  /// The shape's cache entry, marked most recently used; null on a miss
  /// (caller holds mutex_).
  CachedShape* find_shape(const ShapeKey& key);
  /// Keep what a batch of the shape used, evicting the least recently used
  /// shape when full (caller holds mutex_).
  void remember(const ShapeKey& key, const std::string& ic,
                const std::shared_ptr<const ir::Program>& program,
                const std::shared_ptr<const InitialState>& initial);

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;        ///< queue became non-empty / stopping
  std::condition_variable idle_cv_;   ///< in-flight count dropped
  std::deque<Pending> queue_;
  std::vector<std::thread> workers_;
  ServiceStats stats_;
  std::list<CachedShape> shapes_;  ///< most recently used first
  uint64_t next_id_ = 1;
  long next_sequence_ = 1;
  int in_flight_ = 0;  ///< queued + running requests
  bool stopping_ = false;
};

}  // namespace cyclone::ensemble
