#include "core/tune/online.hpp"

#include <algorithm>

#include "core/ir/expand.hpp"
#include "core/perf/model.hpp"
#include "core/xform/passes.hpp"

namespace cyclone::tune {

OnlineTuner::OnlineTuner(const ir::Program& program, OnlineOptions options)
    : options_(std::move(options)), program_(program) {
  // Online tuning happens between steps on the runtime's coordinator
  // thread; it must never run probe executions there.
  options_.tuning.measure_execution = false;
  program_.invalidate_compiled();
  tuned_.assign(program_.states().size(), 0);
  if (!options_.db_path.empty()) {
    db_ = std::make_unique<TuneDb>(options_.db_path);
    ctx_ = TuneDb::context_of(options_.tuning);
    signature_ = TuneDb::program_signature(program_);
  }
}

OnlineTuner::~OnlineTuner() {
  if (db_) {
    try {
      db_->flush();
    } catch (const TuneDbError&) {
      // Destructor: a read-only cache directory must not terminate the run.
    }
  }
}

bool OnlineTuner::tune_state(int state_idx, ir::State& out) {
  const TuningOptions& opts = options_.tuning;
  const double before = model_state(program_, program_.states()[static_cast<size_t>(state_idx)],
                                    opts);

  // Work on a scratch copy of the whole program so the pair-analysis helpers
  // (which look nodes up by (state index, position)) see candidate rewrites
  // in context without committing them.
  ir::Program scratch = program_;
  scratch.invalidate_compiled();
  ir::State& state = scratch.states()[static_cast<size_t>(state_idx)];

  // 1. Per-node schedule tuning, exactly as autotune_schedules does it but
  //    scoped to this state (the rest of the program was either tuned by an
  //    earlier slice or will be by a later one).
  for (auto& node : state.nodes) {
    if (node.kind != ir::SNode::Kind::Stencil) continue;
    const bool vertical = xform::is_vertical_solver(*node.stencil);
    const dsl::IterOrder order =
        vertical ? dsl::IterOrder::Forward : dsl::IterOrder::Parallel;
    const sched::Schedule original = node.schedule;
    double best_time = -1;
    sched::Schedule best = original;
    for (auto candidate : sched::enumerate_valid(order)) {
      candidate.region_strategy = original.region_strategy;
      candidate.vertical_cache =
          candidate.k_as_map ? sched::CacheKind::None : original.vertical_cache;
      node.schedule = candidate;
      const auto kernels = ir::expand_node(node, scratch, opts.dom, 1);
      const double t = perf::model_program(kernels, opts.machine);
      if (best_time < 0 || t < best_time) {
        best_time = t;
        best = candidate;
      }
    }
    node.schedule = best;
    if (!(best == original)) ++stats_.schedules_changed;
    if (db_) db_->put_schedule(ctx_, node.stencil->name(), order, best, best_time);
  }

  // 2. Greedy in-state fusion: repeatedly apply the best modeled-improving
  //    legal fusion until none improves. Terminates — every application
  //    removes a node.
  double current = model_state(scratch, state, opts);
  for (;;) {
    double best_t = current;
    int best_p = -1, best_c = -1;
    TransformKind best_kind = TransformKind::OtfFusion;
    ir::State best_state;
    for (int p = 0; p < static_cast<int>(state.nodes.size()); ++p) {
      for (int c = p + 1; c < static_cast<int>(state.nodes.size()); ++c) {
        if (!detail::has_dependency(state.nodes[static_cast<size_t>(p)],
                                    state.nodes[static_cast<size_t>(c)])) {
          continue;
        }
        for (const TransformKind kind :
             {TransformKind::OtfFusion, TransformKind::SubgraphFusion}) {
          auto fused = detail::try_fuse(scratch, state_idx, p, c, kind,
                                        std::string(transform_name(kind)) + ".online." +
                                            state.nodes[static_cast<size_t>(p)].label);
          if (!fused) continue;
          ir::State candidate = detail::with_fused(state, p, c, *fused);
          const double t = model_state(scratch, candidate, opts);
          if (t < best_t) {
            best_t = t;
            best_p = p;
            best_c = c;
            best_kind = kind;
            best_state = std::move(candidate);
          }
        }
      }
    }
    if (best_p < 0) break;
    if (db_) {
      Pattern pat;
      pat.kind = best_kind;
      pat.producer = detail::func_name(state.nodes[static_cast<size_t>(best_p)]);
      pat.consumer = detail::func_name(state.nodes[static_cast<size_t>(best_c)]);
      pat.cutout_speedup = best_t > 0 ? current / best_t : 1.0;
      db_->put_pattern(ctx_, pat);
    }
    state = std::move(best_state);
    current = best_t;
    ++stats_.fusions_applied;
  }

  out = state;
  return current < before;
}

int OnlineTuner::tune_slice() {
  if (done()) return 0;
  ++stats_.slices;
  int staged_now = 0;
  const int budget = std::max(1, options_.states_per_slice);
  for (int n = 0; n < budget && !done(); ++n) {
    const int s = cursor_++;
    tuned_[static_cast<size_t>(s)] = 1;
    ++stats_.states_examined;

    ir::State rewritten;
    if (!tune_state(s, rewritten)) continue;

    if (options_.verify_swaps) {
      if (!detail::cutout_equivalent(program_, program_.states()[static_cast<size_t>(s)],
                                     rewritten, options_.tuning)) {
        ++stats_.rejected;
        continue;
      }
      ++stats_.verified;
    }

    program_.states()[static_cast<size_t>(s)] = rewritten;
    program_.invalidate_compiled();
    staged_.push_back({s, std::move(rewritten)});
    ++stats_.staged;
    ++staged_now;
  }
  if (db_ && done()) db_->mark_program(ctx_, signature_);
  return staged_now;
}

void OnlineTuner::hot_swap(ir::Program& target) const {
  bool swapped = false;
  for (const auto& swap : staged_) {
    if (swap.state < 0 || swap.state >= static_cast<int>(target.states().size())) continue;
    target.states()[static_cast<size_t>(swap.state)] = swap.replacement;
    swapped = true;
  }
  if (swapped) target.invalidate_compiled();
}

void OnlineTuner::commit() {
  stats_.swapped += static_cast<long>(staged_.size());
  staged_.clear();
  if (db_) {
    try {
      db_->flush();
    } catch (const TuneDbError&) {
      // Persistence is best-effort mid-run; the destructor retries once.
    }
  }
}

}  // namespace cyclone::tune
