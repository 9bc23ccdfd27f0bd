#pragma once

#include <map>
#include <string>

#include "core/dsl/stencil.hpp"

namespace cyclone::exec {

/// Half-open local index range.
struct Range {
  int lo = 0;
  int hi = 0;

  [[nodiscard]] int size() const { return hi > lo ? hi - lo : 0; }
  [[nodiscard]] bool empty() const { return hi <= lo; }
};

/// Horizontal compute-domain extension (GT4Py's per-call `domain=` with
/// origin shift): the apply rectangle grows by ilo/jlo on the low side and
/// ihi/jhi on the high side, letting producers cover their consumers' halo
/// reads without a halo exchange.
struct DomainExt {
  int ilo = 0;
  int ihi = 0;
  int jlo = 0;
  int jhi = 0;

  [[nodiscard]] bool any() const { return ilo || ihi || jlo || jhi; }
  friend bool operator==(const DomainExt&, const DomainExt&) = default;
};

/// Where and how large a stencil launch is. Stencils themselves are
/// domain-size agnostic (GT4Py defines only dimensionality); the launch
/// provides the compute-domain sizes plus the *global placement* of this
/// subdomain on its cubed-sphere tile, which is what resolves
/// `horizontal(region[...])` bounds (paper Sec. IV-B).
struct LaunchDomain {
  int ni = 0;
  int nj = 0;
  int nk = 0;

  /// Global index of local (0, 0) on the owning tile.
  int gi0 = 0;
  int gj0 = 0;
  /// Global tile extent; -1 means "this subdomain is the whole tile".
  int gni = -1;
  int gnj = -1;

  /// Apply-domain extension for this launch (all four horizontal sides).
  DomainExt ext{};

  [[nodiscard]] int global_ni() const { return gni < 0 ? ni : gni; }
  [[nodiscard]] int global_nj() const { return gnj < 0 ? nj : gnj; }

  [[nodiscard]] long volume() const { return static_cast<long>(ni) * nj * nk; }
};

/// Which executor a program's stencil nodes run on. The ladder mirrors the
/// paper's backend stack: the reference interpreter defines the semantics,
/// the tape executor is the serial bytecode fast path, OpenMP is the
/// schedule-aware threaded engine, and Jit lowers each stencil to generated
/// C++ compiled by the host toolchain (DaCe/Devito-style codegen). Every
/// rung is bitwise identical (0 ULP) to the interpreter by contract.
enum class ExecBackend { Interpreter, Tape, OpenMP, Jit };

/// Short stable name used by CLI flags and JSON records.
const char* backend_name(ExecBackend backend);

/// Parse "interp"/"interpreter", "tape", "openmp"/"omp", "jit". Returns
/// false and leaves `out` untouched on unknown names.
bool parse_backend(const std::string& name, ExecBackend& out);

/// Autotuning policy for a run (paper Sec. VI-B, transfer-tuning v2).
/// `Off` executes schedules as written; `Guided` runs the model-pruned
/// search once up front; `Exhaustive` is the enumeration oracle the guided
/// mode is tested against; `Online` re-tunes cold kernels between timesteps
/// and hot-swaps improved schedules at step boundaries (every mode is
/// semantics-preserving — schedules never change results).
enum class TuneMode { Off, Guided, Exhaustive, Online };

/// Short stable name used by CLI flags and JSON records.
const char* tune_mode_name(TuneMode mode);

/// Parse "off", "guided", "exhaustive", "online". Returns false and leaves
/// `out` untouched on unknown names.
bool parse_tune_mode(const std::string& name, TuneMode& out);

/// How a program's stencils execute (the on-node analog of DaCe's OpenMP
/// sections). `backend` is the one executor selector; `num_threads` caps
/// the team size of the threaded backends (0 defers to the OpenMP runtime,
/// i.e. OMP_NUM_THREADS).
struct RunOptions {
  int num_threads = 0;
  /// OpenMP team size budget for each rank thread of the concurrent
  /// distributed runtime (0 = one thread per rank, i.e. no nested
  /// parallelism). Rank threads and OpenMP teams compose: total hardware
  /// threads used is num_ranks * threads_per_rank.
  int threads_per_rank = 0;
  /// Executor selection. Interpreter routes through the serial reference
  /// executor; Tape runs the compiled tape as a team of one (the serial
  /// path the verify harness diffs the threaded engines against); OpenMP
  /// runs the same tape on `num_threads` threads; Jit runs generated native
  /// kernels and falls back to the OpenMP tape engine (with a logged
  /// warning) when no host compiler is available.
  ExecBackend backend = ExecBackend::OpenMP;
  /// Autotuning policy (see TuneMode). Off by default: tuning costs time
  /// up front, so callers opt in per run or amortize it through a warm
  /// tuning database.
  TuneMode tune_mode = TuneMode::Off;
  /// Path of the persistent tuning database ("" = tune without persistence;
  /// pass tune::TuneDb::default_path() to opt into the $CYCLONE_TUNE_DB /
  /// XDG cache chain).
  std::string tune_db;

  friend bool operator==(const RunOptions&, const RunOptions&) = default;
};

/// Runtime arguments of one stencil invocation: scalar parameter values and
/// an optional renaming of stencil formal field names to catalog names.
struct StencilArgs {
  std::map<std::string, double> params;
  std::map<std::string, std::string> bind;

  [[nodiscard]] std::string actual(const std::string& formal) const {
    auto it = bind.find(formal);
    return it == bind.end() ? formal : it->second;
  }

  [[nodiscard]] double param(const std::string& name) const;
};

/// Resolve one dimension of a region restriction into a local range, clipped
/// against the statement's apply range. `gn` is the global tile size, `gd0`
/// the global index of local zero.
Range resolve_region_dim(const dsl::RegionBound& lo, const dsl::RegionBound& hi, int gn, int gd0,
                         Range apply);

/// Resolve a full region against a 2-D apply rectangle.
struct Rect {
  Range i, j;
  [[nodiscard]] bool empty() const { return i.empty() || j.empty(); }
};
Rect resolve_region(const dsl::Region& region, const LaunchDomain& dom, Rect apply);

}  // namespace cyclone::exec
