#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tune/tunedb.hpp"
#include "core/tune/tuner.hpp"

namespace cyclone::tune {

/// Policy of the online re-tuner.
struct OnlineOptions {
  /// Model, domain, and search knobs of the between-steps tuning work.
  /// measure_execution is ignored — online tuning is analytic-only, so a
  /// slice costs microseconds and never perturbs step timing with probe
  /// runs.
  TuningOptions tuning;
  /// Persistent tuning DB ("" = none): tuned schedules and patterns are
  /// recorded as they are found, so the next process starts warm.
  std::string db_path;
  /// Cold states examined per tune_slice() call. One per step boundary
  /// spreads the tuning cost evenly over the first N steps of a run.
  int states_per_slice = 1;
  /// Differential-guard every staged rewrite with verify::check_equivalent
  /// on its single-state cutout before it may be swapped in. Off by
  /// default: schedule and fusion rewrites are semantics-preserving by
  /// construction and the oracle costs interpreter runs; tests turn it on
  /// to pin the contract.
  bool verify_swaps = false;
};

/// Counters of the online tuner (read between steps only).
struct OnlineStats {
  long slices = 0;           ///< tune_slice() calls
  long states_examined = 0;  ///< cold states tuned so far
  long schedules_changed = 0;
  long fusions_applied = 0;
  long staged = 0;   ///< improving rewrites staged for swap
  long swapped = 0;  ///< state swaps applied to target programs
  long verified = 0; ///< staged rewrites that passed the differential guard
  long rejected = 0; ///< staged rewrites the guard refused
};

/// Between-steps re-tuner: the runtime hands it spare cycles at step
/// boundaries; it examines one (or a few) not-yet-tuned program states per
/// slice — schedule enumeration plus greedy in-state fusion, scored on the
/// Fig. 10 model — and stages any modeled improvement. The runtime then
/// hot-swaps the staged states into every rank's program copy *at the step
/// boundary* (never mid-step: rank threads are joined, so no executor is
/// running) and resumes. Every rewrite is semantics-preserving, so a
/// re-tuned run is bitwise identical to a never-tuned one.
class OnlineTuner {
 public:
  /// `program` is the shape being run (any rank's copy — states are
  /// identical across ranks).
  OnlineTuner(const ir::Program& program, OnlineOptions options);
  ~OnlineTuner();

  /// Examine up to states_per_slice cold states and stage improving
  /// rewrites. Returns the number of rewrites staged by this call. No-op
  /// once done().
  int tune_slice();

  /// Apply every currently-staged rewrite to `target` (call once per
  /// program copy), invalidating its compiled caches if anything changed.
  /// Returns the swapped state indices (callers re-derive state-dependent
  /// plans — overlap analysis — for exactly these).
  std::vector<int> hot_swap(ir::Program& target) const;

  /// Forget the staged set once every copy has been swapped; flushes the
  /// DB when one is attached.
  void commit();

  /// All states examined — no further slices will stage anything.
  [[nodiscard]] bool done() const { return cursor_ >= static_cast<int>(tuned_.size()); }

  [[nodiscard]] const OnlineStats& stats() const { return stats_; }

  /// The fully-tuned shape accumulated so far (the working copy swaps are
  /// staged against).
  [[nodiscard]] const ir::Program& tuned() const { return program_; }

 private:
  struct StagedSwap {
    int state = 0;
    ir::State replacement;
  };

  /// Schedule-tune + greedily fuse one state in place on `program_`;
  /// returns true if the state's modeled time improved.
  bool tune_state(int state_idx, ir::State& out);

  OnlineOptions options_;
  ir::Program program_;        ///< working copy, progressively tuned
  std::vector<char> tuned_;    ///< per state: examined yet?
  int cursor_ = 0;             ///< next state to examine
  std::vector<StagedSwap> staged_;
  std::unique_ptr<TuneDb> db_;
  TuneContext ctx_;
  std::string signature_;
  OnlineStats stats_;
};

}  // namespace cyclone::tune
