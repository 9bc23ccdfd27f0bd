// Shared pieces of the end-to-end benchmark: span tracing, sample statistics,
// the result record, and the workload entry points.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile q in [0, 1], interpolated linearly between order statistics;
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process so far.
double peak_rss_mb();

/// In-memory span recorder. Each span has a name, start, end, parent and
/// lane (one lane per thread driving spans; nesting is tracked per lane).
/// Spans are written as Chrome trace-event JSON when the run ends. A
/// disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span started at `start` on `lane`; returns its id.
  int begin(const std::string& name, int lane, Clock::time_point start);
  void end(int id, Clock::time_point stop);

  struct SelfTime {
    std::string name;
    long count = 0;
    double total_s = 0;
    double self_s = 0;  ///< total minus the time its child spans cover
  };
  /// Per-name totals, largest self time first.
  [[nodiscard]] std::vector<SelfTime> self_times() const;
  [[nodiscard]] size_t size() const;
  void write_chrome_json(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    int parent = -1;
    int lane = 0;
    double start_us = 0;
    double end_us = -1;
  };
  [[nodiscard]] double us(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;             ///< guarded by mu_
  std::vector<std::vector<int>> open_;  ///< guarded by mu_; per lane, open span ids
};

/// Times a scope, and records it as a span when the tracer is enabled. The
/// untraced paths time with it too, so a span's duration is exactly the
/// measured duration.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int lane = 0) : start_(Clock::now()) {
    if (tracer != nullptr && tracer->enabled()) {
      tracer_ = tracer;
      id_ = tracer->begin(name, lane, start_);
    }
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (once); returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      const Clock::time_point end = Clock::now();
      seconds_ = std::chrono::duration<double>(end - start_).count();
      stopped_ = true;
      if (tracer_ != nullptr) tracer_->end(id_, end);
    }
    return seconds_;
  }

 private:
  Tracer* tracer_ = nullptr;
  int id_ = -1;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one run. An operation is one checked forecast: a dycore
/// segment or a service request.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;                           ///< printed after the metrics
  std::vector<std::pair<std::string, std::string>> context;  ///< run-context record

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Count one checked operation; the first failure of each kind gets a note.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    const std::string note = "FAILED: " + what + " differs from its reference";
    if (std::find(notes.begin(), notes.end(), note) == notes.end()) notes.push_back(note);
  }
};

/// Set-ups per untraced run; setup_s is their median, and the measured loop
/// is split evenly over the models or services they build. A traced run
/// sets up once.
constexpr int kSetupReps = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 3;
  std::string state_dir;  ///< prepared state, JIT cache, traces and results
  bool corrupt = false;   ///< self-test: flip one bit of the first checked output
};

struct Context {
  int nproc = 1;
  long llc_bytes = 0;
  std::string llc_text = "unknown";
  std::string git_sha = "unknown";
};

/// `s` as a JSON string literal, quotes included.
std::string json_quote(const std::string& s);

/// Key/value record written by the prepare step (cold JIT compile times,
/// reference checksums) as a JSON object of strings, and read by every
/// measured run.
using Record = std::map<std::string, std::string>;
void write_record(const std::string& path, const Record& rec);
Record read_record(const std::string& path);
std::string prep_path(const Options& opt);
/// Fail when the prepared state was made for another configuration.
void require_config(const Record& prep, const std::string& config);

std::string join_hex(const std::vector<uint64_t>& values);
std::vector<uint64_t> split_hex(const std::string& text);

/// Bandwidth roof measured with a DSL copy stencil on the JIT backend.
struct CopyRoof {
  double gbps = 0;
  long array_bytes = 0;  ///< bytes of each of the two arrays
};
/// Compile (or load) the copy stencil's kernel into the JIT cache.
void prime_copy_roof(int threads);
/// Measure the roof with arrays of at least 4x the last-level cache.
CopyRoof measure_copy_roof(int threads, long llc_bytes, Tracer& tracer);
void add_roof_metrics(RunResult& res, const CopyRoof& roof, const Context& ctx);

/// Machine-speed probe: a fixed lockstep sweep in plain C++ and OpenMP,
/// shaped like a workload. Each pass applies a 5-point stencil to every
/// field of every rank block, one OpenMP loop per (field, rank), and copies
/// two block edges per rank and field as a halo exchange would. It calls no
/// cyclone code and its shape is fixed per workload, so only the machine,
/// never a change to the program, moves its time. An untraced run probes
/// between parts of its measured loop (dycore: one pass between consecutive
/// segments; forecast_mix: a block of passes between services) and scales
/// each part's times by the reference pass time over the mean of the probe
/// times around it.
struct ProbeShape {
  int ranks = 1;
  int n = 1;       ///< interior points per rank block side
  int nk = 1;      ///< levels
  double mib = 1;  ///< total footprint, about the workload's working set
  /// Median pass on the machine the benchmark was defined on (4-vCPU Xeon
  /// KVM guest, 3 threads).
  double reference_ms = 1;
};
class Probe {
 public:
  /// Allocates the fields and makes one unmeasured pass.
  Probe(const ProbeShape& shape, int threads);
  /// Seconds of one pass.
  double pass();

 private:
  ProbeShape shape_;
  int threads_;
  int fields_;
  std::vector<std::vector<double>> data_;  ///< field-major, then rank
};

/// JIT cache counters of this process, the warm precompile time, and the
/// cold compile time recorded by the prepare step.
void add_jit_metrics(RunResult& res, const Record& prep, double precompile_s);
/// Record and note the host-compiler runs of this process so far. Called
/// once the measured loop is over: every timed run must find its kernels in
/// the warm cache.
void flag_warm_compiles(RunResult& res);
/// Per-layer metrics a workload does not exercise, reported as 0.
void add_not_applicable(RunResult& res, const std::vector<Metric>& metrics,
                        const std::string& why);

void prepare_dycore(const Options& opt);
void prepare_forecast(const Options& opt);
RunResult run_dycore(const Options& opt, const Context& ctx, Tracer& tracer);
RunResult run_forecast(const Options& opt, const Context& ctx, Tracer& tracer);

}  // namespace perfbench
