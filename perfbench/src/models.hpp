// Model pieces shared by the workloads: checksums and working-set size for
// either model core (fv3::DistributedModel, swe::SweModel), and for the
// dycore the set-up, the checked forecast segments, and the traced lockstep
// step rebuilt from the public calls of the comm layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/verify/corpus.hpp"
#include "fv3/driver.hpp"
#include "grid/cube_topology.hpp"

namespace perfbench {

/// Model steps in one checked forecast segment: rewind to the initial
/// state, step, then compare every prognostic bit for bit with the
/// reference for the same inputs and step count.
constexpr int kSegmentSteps = 2;

cyclone::exec::RunOptions jit_run(int threads);

/// Checksums of the assembled global prognostic fields. Assembly walks
/// global (tile, k, j, i) order, so they do not depend on the decomposition.
template <class Model>
std::vector<uint64_t> checksums(Model& model, const std::vector<std::string>& names) {
  std::vector<cyclone::verify::RankView> views;
  for (int r = 0; r < model.num_ranks(); ++r) {
    const cyclone::grid::RankInfo info = model.partitioner().info(r);
    views.push_back(cyclone::verify::RankView{&model.state(r).catalog(), info.tile, info.i0,
                                              info.j0, info.ni, info.nj});
  }
  std::vector<uint64_t> out;
  for (const auto& name : names) {
    out.push_back(cyclone::verify::assemble_field(name, cyclone::grid::kNumFaces,
                                                  model.partitioner().n(), views)
                      .checksum);
  }
  return out;
}

/// Bytes of every field the model's ranks own (its computed working set).
template <class Model>
double model_bytes(Model& model) {
  double bytes = 0;
  for (int r = 0; r < model.num_ranks(); ++r) {
    bytes += static_cast<double>(model.state(r).catalog().owned_bytes());
  }
  return bytes;
}

/// Copy of the named fields of every rank; restore() rewinds the model.
class Snapshot {
 public:
  Snapshot(cyclone::fv3::DistributedModel& model, std::vector<std::string> names);
  void restore(cyclone::fv3::DistributedModel& model) const;

 private:
  std::vector<std::string> names_;
  std::vector<cyclone::FieldD> fields_;
};

/// Initial condition of a dycore workload.
using InitFn = std::function<void(cyclone::fv3::DistributedModel&)>;

/// A set-up dycore, its initial state, the checksums its prognostics must
/// reach after kSegmentSteps steps, and the time of each set-up phase.
struct Ready {
  std::unique_ptr<cyclone::fv3::DistributedModel> model;
  std::unique_ptr<Snapshot> initial;
  std::vector<std::string> prognostics;
  std::vector<uint64_t> reference;
  double build_s = 0;
  double init_s = 0;
  double precompile_s = 0;
  double warmup_s = 0;

  [[nodiscard]] double setup_s() const { return build_s + init_s + precompile_s + warmup_s; }
};

/// Set-up as a user pays it: construction, initial condition, JIT module
/// load, one warm-up step. The initial-state snapshot is taken between
/// init and warm-up and is not part of the set-up time.
Ready set_up(const cyclone::fv3::FvConfig& cfg, int ranks, const InitFn& init,
             std::vector<uint64_t> reference, int threads, Tracer& tracer);

/// One untraced checked segment through model.step(). Appends each step's
/// wall time; returns whether the outputs match the reference.
bool run_segment(Ready& r, std::vector<double>& step_s, bool corrupt);

/// Per-layer metrics of one dycore from the traced run:
///  - untraced and traced checked segments, interleaved for `budget_s`, give
///    the compute/halo split per state and the tracing overhead;
///  - the compute time at 1 thread against the thread budget, on the same
///    inputs, gives the threading speedup;
///  - computed bytes per state (ir::expand_node + perf::unique_bytes) over
///    the measured time, against the measured copy roof, give the measured
///    Fig. 10 column, printed beside the P100 model's time.
void layer_sweep(Ready& r, const Options& opt, double budget_s, const CopyRoof& roof,
                 Tracer& tracer, RunResult& res);

}  // namespace perfbench
