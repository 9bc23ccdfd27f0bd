#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/ir/program.hpp"
#include "core/perf/model.hpp"
#include "core/verify/verify.hpp"

namespace cyclone::tune {

/// The two fusion transformations transfer tuning searches over (paper
/// Sec. VI-B): on-the-fly map fusion (recompute for memory) and subgraph
/// fusion (common iteration spaces into one kernel).
enum class TransformKind { OtfFusion, SubgraphFusion };

const char* transform_name(TransformKind kind);

/// An optimization pattern extracted from a tuned cutout: since stencils are
/// named, a configuration "is sufficiently described by a set of labels of
/// the candidates and which transformations were applied" (Sec. VI-B). We
/// use the stencil *function* names so patterns found in one module (e.g.
/// fv_tp_2d in FVT) generalize to every other use of the same motif.
struct Pattern {
  TransformKind kind = TransformKind::SubgraphFusion;
  std::string producer;  ///< producer stencil function name
  std::string consumer;  ///< consumer stencil function name
  double cutout_speedup = 1.0;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.kind == b.kind && a.producer == b.producer && a.consumer == b.consumer;
  }
};

struct TuningOptions {
  exec::LaunchDomain dom;
  perf::MachineSpec machine = perf::p100();
  int top_m = 2;  ///< best-M configurations kept per cutout (paper: M = 2)
  /// Differential guard on transfers (the paper's protection against
  /// incorrect pattern application): a fused candidate state is accepted
  /// only if its single-state cutout passes verify::check_equivalent against
  /// the unfused original on the reference interpreter. Off by default —
  /// fusion legality checks already gate correctness; the guard adds
  /// oracle-backed certainty at interpreter cost.
  bool verify_transfers = false;
  /// Options of the guard's equivalence check; an empty domain list verifies
  /// on `dom` itself (the placement being tuned for).
  verify::VerifyOptions verify;
  /// Rank candidates by wall-timing their single-state cutouts on the
  /// parallel execution engine instead of the analytic model, so tuning
  /// orders what production actually runs. Off by default: the model is
  /// deterministic and fast, which the tests rely on.
  bool measure_execution = false;
  /// Timed repetitions per candidate (minimum is taken, after one warm-up
  /// run that builds executor caches and temporary pools).
  int measure_reps = 3;
  /// Engine options used for measured runs (backend, thread count).
  exec::RunOptions run;

  /// Evaluate every fusible candidate pair (the pre-v2 enumeration). This is
  /// the oracle mode the guided search is tested against; the default search
  /// prunes with the bandwidth model (search.hpp).
  bool exhaustive = false;
  /// Guided search: a pair whose kernels all run at >= this fraction of the
  /// bandwidth bound, with no traffic to save, is provably within one launch
  /// overhead of optimal — discard without evaluating.
  double prune_saturation = 0.97;
  /// Guided search: discard candidates whose modeled *upper bound* on
  /// relative gain is below this; also the "diminishing returns" threshold
  /// of the early exit.
  double min_gain = 0.01;
  /// Guided search: abandon a state after this many consecutive evaluated
  /// candidates that fail to beat (1 + min_gain) speedup. Candidates are
  /// evaluated best-predicted-first, so a flat streak means the ordered tail
  /// is unlikely to pay for its evaluations.
  int search_patience = 3;
};

/// Result of exhaustively tuning one cutout (program state).
struct CutoutResult {
  std::string state_name;
  int configs_tested = 0;
  double best_speedup = 1.0;
  std::vector<Pattern> best;
};

/// Phase 1 of transfer tuning: treat every state of `source` as a cutout,
/// exhaustively try the given fusion kind on every dependent node pair, and
/// keep the top-M locally-improving configurations as patterns.
std::vector<CutoutResult> tune_cutouts(const ir::Program& source, const TuningOptions& options,
                                       TransformKind kind);

/// Flatten cutout results into a deduplicated pattern list (best speedup
/// first).
std::vector<Pattern> collect_patterns(const std::vector<CutoutResult>& cutouts);

/// Phase 2: scan `target` for adjacent node pairs matching a pattern, apply
/// the transformation tentatively, and keep it only if the modeled state
/// time improves (the paper's guard against negative transfers). Only the
/// first match per pattern and state is considered.
struct TransferReport {
  int candidates_found = 0;
  int applied = 0;
  /// Candidates that improved the model but failed the differential guard
  /// (only nonzero with TuningOptions::verify_transfers).
  int rejected_by_verify = 0;
  double time_before = 0;
  double time_after = 0;

  [[nodiscard]] double speedup() const {
    return time_after > 0 ? time_before / time_after : 1.0;
  }
};
TransferReport transfer(ir::Program& target, const std::vector<Pattern>& patterns,
                        const TuningOptions& options);

/// Repeat transfer passes until no further transformation applies (the
/// paper's "additional cycles could improve the performance further") or
/// `max_passes` is reached. Counts are accumulated.
TransferReport transfer_until_converged(ir::Program& target,
                                        const std::vector<Pattern>& patterns,
                                        const TuningOptions& options, int max_passes = 5);

/// Local schedule auto-tuning (the Sec. VI-A "initial heuristics" step made
/// automatic): for every stencil node, enumerate the valid schedules and
/// assign the modeled-fastest one. Returns the number of nodes whose
/// schedule changed.
int autotune_schedules(ir::Program& program, const TuningOptions& options);

/// Modeled time of a single state (sum over its expanded kernels).
double model_state(const ir::Program& program, const ir::State& state,
                   const TuningOptions& options);

/// Modeled time of the whole program (invocation-weighted).
double model_whole_program(const ir::Program& program, const TuningOptions& options);

/// Internal building blocks shared between the exhaustive tuner, the guided
/// search (search.hpp), and the online re-tuner (online.hpp). Semantics are
/// pinned by tests/test_tune.cpp through the public entry points; treat the
/// contracts below as stable.
namespace detail {

/// True if nodes p (producer) and c (consumer) have a dataflow dependency.
bool has_dependency(const ir::SNode& p, const ir::SNode& c);

/// Fields fusion may demote to kernel-local temporaries for the pair
/// (state, {p, c}): transient, produced by the pair, written before read
/// inside it, and dead afterwards.
std::set<std::string> may_die_set(const ir::Program& program, int state_idx, int p, int c);

/// Try to fuse nodes p and c of the given state; nullopt if the
/// transformation is illegal.
std::optional<ir::SNode> try_fuse(const ir::Program& program, int state_idx, int p, int c,
                                  TransformKind kind, const std::string& label);

/// Replace nodes p and c in `state` by `fused` (keeps execution position c).
ir::State with_fused(const ir::State& state, int p, int c, ir::SNode fused);

/// Stencil function name of a node ("" for non-stencil nodes).
std::string func_name(const ir::SNode& node);

/// Differential acceptance test of a candidate state rewrite: the rewritten
/// single-state cutout must pass verify::check_equivalent against the
/// original on the reference interpreter. The online re-tuner uses this as
/// its swap guard.
bool cutout_equivalent(const ir::Program& parent, const ir::State& before,
                       const ir::State& after, const TuningOptions& options);

/// Wall-clock a single-state cutout on the engine selected by options.run
/// (minimum of measure_reps timed executions after one warm-up).
double measure_state(const ir::Program& program, const ir::State& state,
                     const TuningOptions& options);

}  // namespace detail

}  // namespace cyclone::tune
