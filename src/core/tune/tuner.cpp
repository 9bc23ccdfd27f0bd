#include "core/tune/tuner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/dsl/analysis.hpp"
#include "core/tune/search.hpp"
#include "core/xform/fusion.hpp"
#include "core/xform/passes.hpp"

namespace cyclone::tune {

const char* transform_name(TransformKind kind) {
  switch (kind) {
    case TransformKind::OtfFusion: return "OTF";
    case TransformKind::SubgraphFusion: return "SGF";
  }
  return "?";
}

namespace {

/// How a node touches a field (in actual/catalog names).
enum class Touch { None, ReadsFirst, WritesOnly };

Touch node_touch(const ir::SNode& node, const std::string& field) {
  switch (node.kind) {
    case ir::SNode::Kind::Callback:
      return Touch::ReadsFirst;  // callbacks may observe anything
    case ir::SNode::Kind::HaloExchange:
      for (const auto& f : node.halo_fields) {
        if (f == field) return Touch::ReadsFirst;  // exchanges read interiors
      }
      return Touch::None;
    case ir::SNode::Kind::Stencil: {
      const dsl::AccessInfo acc = dsl::analyze(*node.stencil);
      bool writes = false;
      for (const auto& [formal, _] : acc.writes) {
        if (node.args.actual(formal) == field) writes = true;
      }
      bool reads = false;
      for (const auto& [formal, _] : acc.reads) {
        if (node.args.actual(formal) == field) reads = true;
      }
      if (reads) return Touch::ReadsFirst;  // conservative: reads anywhere count
      if (writes) return Touch::WritesOnly;
      return Touch::None;
    }
  }
  return Touch::None;
}

/// True if no node *after* position (state_idx, node c) in execution order
/// reads `field` before it is overwritten — i.e. the value produced by the
/// pair is dead. Loops are handled by scanning one full execution cycle
/// starting right after the pair.
bool dead_after_pair(const ir::Program& program, int state_idx, int c,
                     const std::string& field) {
  const auto order = program.flatten_execution_order();
  // Find the first occurrence of state_idx; scanning one wrapped cycle from
  // there covers every path a loop can take to re-reach the value.
  size_t start = 0;
  while (start < order.size() && order[start] != state_idx) ++start;
  if (start == order.size()) return true;  // state never executes

  const size_t total = order.size();
  for (size_t step = 0; step <= total; ++step) {
    const size_t pos = (start + step) % total;
    const ir::State& state = program.states()[static_cast<size_t>(order[pos])];
    int first_node = 0;
    if (step == 0) first_node = c + 1;  // within the pair's state: nodes after the consumer
    for (int n = first_node; n < static_cast<int>(state.nodes.size()); ++n) {
      switch (node_touch(state.nodes[static_cast<size_t>(n)], field)) {
        case Touch::ReadsFirst: return false;
        case Touch::WritesOnly: return true;  // overwritten before any read
        case Touch::None: break;
      }
    }
  }
  return true;
}

}  // namespace

namespace detail {

std::set<std::string> may_die_set(const ir::Program& program, int state_idx, int p, int c) {
  const auto& state = program.states()[static_cast<size_t>(state_idx)];
  const auto& a = state.nodes[static_cast<size_t>(p)];
  const auto& b = state.nodes[static_cast<size_t>(c)];

  // Candidates: transient outputs of the producer.
  std::set<std::string> candidates;
  {
    const dsl::AccessInfo acc = dsl::analyze(*a.stencil);
    for (const auto& [name, _] : acc.writes) {
      const std::string actual = a.args.actual(name);
      if (program.meta_of(actual).transient) candidates.insert(actual);
    }
  }

  std::set<std::string> out;
  for (const auto& field : candidates) {
    // The pair must not consume an incoming value: scan the pair's
    // statements in order; the first touch must be a write whose RHS does
    // not read the field.
    bool write_first = false;
    bool decided = false;
    for (const ir::SNode* node : {&a, &b}) {
      if (decided) break;
      for (const auto& block : node->stencil->blocks()) {
        if (decided) break;
        for (const auto& iv : block.intervals) {
          if (decided) break;
          for (const auto& stmt : iv.body) {
            dsl::AccessInfo acc;
            dsl::collect_accesses(stmt.rhs, acc);
            bool reads = false;
            for (const auto& [formal, _] : acc.reads) {
              if (node->args.actual(formal) == field) reads = true;
            }
            const bool writes = node->args.actual(stmt.lhs) == field;
            if (reads) {
              write_first = false;
              decided = true;
              break;
            }
            if (writes) {
              write_first = true;
              decided = true;
              break;
            }
          }
        }
      }
    }
    if (!write_first) continue;
    if (!dead_after_pair(program, state_idx, c, field)) continue;
    out.insert(field);
  }
  return out;
}

bool has_dependency(const ir::SNode& p, const ir::SNode& c) {
  if (p.kind != ir::SNode::Kind::Stencil || c.kind != ir::SNode::Kind::Stencil) return false;
  const dsl::AccessInfo pw = dsl::analyze(*p.stencil);
  const dsl::AccessInfo cr = dsl::analyze(*c.stencil);
  for (const auto& [formal, _] : pw.writes) {
    const std::string actual = p.args.actual(formal);
    for (const auto& [cf, __] : cr.reads) {
      if (c.args.actual(cf) == actual) return true;
    }
  }
  return false;
}

std::optional<ir::SNode> try_fuse(const ir::Program& program, int state_idx, int p, int c,
                                  TransformKind kind, const std::string& label) {
  const auto& state = program.states()[static_cast<size_t>(state_idx)];
  const auto& a = state.nodes[static_cast<size_t>(p)];
  const auto& b = state.nodes[static_cast<size_t>(c)];
  const auto dying = may_die_set(program, state_idx, p, c);

  // Compute-domain extension compatibility: the fused node runs with the
  // consumer's extension, so any producer output that stays externally
  // visible would lose its extended coverage — refuse unless every producer
  // output dies in the fusion.
  if (!(a.ext == b.ext)) {
    const dsl::AccessInfo acc = dsl::analyze(*a.stencil);
    for (const auto& [formal, _] : acc.writes) {
      if (!dying.count(a.args.actual(formal))) return std::nullopt;
    }
  }

  try {
    if (kind == TransformKind::OtfFusion) {
      if (!xform::can_fuse_otf(a, b).ok) return std::nullopt;
      return xform::fuse_otf(a, b, label, dying);
    }
    if (!xform::can_fuse_subgraph(a, b).ok) return std::nullopt;
    return xform::fuse_subgraph(a, b, label, dying);
  } catch (const Error&) {
    return std::nullopt;  // deep legality failure inside the rewriter
  }
}

ir::State with_fused(const ir::State& state, int p, int c, ir::SNode fused) {
  ir::State out;
  out.name = state.name;
  for (int idx = 0; idx < static_cast<int>(state.nodes.size()); ++idx) {
    if (idx == p) continue;
    if (idx == c) {
      out.nodes.push_back(fused);
    } else {
      out.nodes.push_back(state.nodes[static_cast<size_t>(idx)]);
    }
  }
  return out;
}

/// Single-state cutout program for the differential guard: the state's
/// stencil/halo nodes (callbacks stripped — they cannot run on synthetic
/// catalogs) plus the parent's field metadata, so transient contracts carry
/// over to the equivalence check.
ir::Program cutout_program(const ir::Program& parent, const ir::State& state) {
  ir::Program cut(parent.name() + "#" + state.name);
  cut.append_state(state);
  for (const auto& [name, meta] : parent.field_meta()) cut.set_field_meta(name, meta);
  return verify::without_callbacks(cut);
}

bool cutout_equivalent(const ir::Program& parent, const ir::State& before,
                       const ir::State& after, const TuningOptions& options) {
  verify::VerifyOptions vo = options.verify;
  if (vo.domains.empty()) vo.domains = {options.dom};
  return verify::check_equivalent(cutout_program(parent, before),
                                  cutout_program(parent, after), vo)
      .equivalent;
}

/// Wall-clock a single-state cutout on the engine selected by options.run
/// (tape, OpenMP, or native JIT): precompile plus one warm-up run build the
/// executor caches and temporary pools — and, on the JIT backend, run
/// codegen and the host compiler — so none of that lands on the timed path.
/// The minimum of `measure_reps` timed executions is taken (minimum, not
/// mean — scheduling noise only ever adds time).
double measure_state(const ir::Program& program, const ir::State& state,
                     const TuningOptions& options) {
  ir::Program cut = cutout_program(program, state);
  cut.set_run_options(options.run);
  cut.precompile();
  FieldCatalog cat =
      verify::make_test_catalog(cut, cut, options.dom, options.verify.data_seed);
  cut.execute(cat, options.dom);
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < std::max(1, options.measure_reps); ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    cut.execute(cat, options.dom);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace detail

namespace {

double model_state_impl(const ir::Program& program, const ir::State& state,
                        const TuningOptions& options) {
  if (options.measure_execution) return detail::measure_state(program, state, options);
  std::vector<ir::KernelDesc> kernels;
  for (const auto& node : state.nodes) {
    auto ks = ir::expand_node(node, program, options.dom, 1);
    kernels.insert(kernels.end(), ks.begin(), ks.end());
  }
  return perf::model_program(kernels, options.machine);
}

}  // namespace

std::string detail::func_name(const ir::SNode& node) {
  return node.kind == ir::SNode::Kind::Stencil ? node.stencil->name() : std::string();
}

// The file below predates the detail split; keep its call sites unqualified.
using namespace detail;

double model_state(const ir::Program& program, const ir::State& state,
                   const TuningOptions& options) {
  return model_state_impl(program, state, options);
}

double model_whole_program(const ir::Program& program, const TuningOptions& options) {
  return perf::model_program(ir::expand_program(program, options.dom), options.machine);
}

std::vector<CutoutResult> tune_cutouts(const ir::Program& source, const TuningOptions& options,
                                       TransformKind kind) {
  // Transfer-tuning v2: the model-pruned guided search is the default; the
  // pre-v2 enumeration below stays available as the oracle it is tested
  // against (TuningOptions::exhaustive).
  if (!options.exhaustive) {
    SearchStats stats;
    return guided_tune_cutouts(source, options, kind, stats);
  }
  std::vector<CutoutResult> results;
  for (int s = 0; s < static_cast<int>(source.states().size()); ++s) {
    const ir::State& state = source.states()[static_cast<size_t>(s)];
    CutoutResult res;
    res.state_name = state.name;
    const double base_time = model_state_impl(source, state, options);

    struct Scored {
      Pattern pattern;
      double speedup;
    };
    std::vector<Scored> scored;

    for (int p = 0; p < static_cast<int>(state.nodes.size()); ++p) {
      for (int c = p + 1; c < static_cast<int>(state.nodes.size()); ++c) {
        const auto& a = state.nodes[static_cast<size_t>(p)];
        const auto& b = state.nodes[static_cast<size_t>(c)];
        if (!has_dependency(a, b)) continue;
        ++res.configs_tested;
        auto fused = try_fuse(source, s, p, c, kind, "tuned." + a.label + "+" + b.label);
        if (!fused) continue;
        const ir::State candidate = with_fused(state, p, c, *fused);
        const double t = model_state_impl(source, candidate, options);
        if (t <= 0 || base_time <= 0) continue;
        const double speedup = base_time / t;
        if (speedup <= 1.0) continue;
        Pattern pat;
        pat.kind = kind;
        pat.producer = func_name(a);
        pat.consumer = func_name(b);
        pat.cutout_speedup = speedup;
        scored.push_back({pat, speedup});
      }
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) { return a.speedup > b.speedup; });
    for (int m = 0; m < options.top_m && m < static_cast<int>(scored.size()); ++m) {
      res.best.push_back(scored[static_cast<size_t>(m)].pattern);
      res.best_speedup = std::max(res.best_speedup, scored[static_cast<size_t>(m)].speedup);
    }
    results.push_back(std::move(res));
  }
  return results;
}

std::vector<Pattern> collect_patterns(const std::vector<CutoutResult>& cutouts) {
  std::vector<Pattern> out;
  for (const auto& cut : cutouts) {
    for (const auto& pat : cut.best) {
      auto existing = std::find(out.begin(), out.end(), pat);
      if (existing == out.end()) {
        out.push_back(pat);
      } else {
        existing->cutout_speedup = std::max(existing->cutout_speedup, pat.cutout_speedup);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Pattern& a, const Pattern& b) {
    return a.cutout_speedup > b.cutout_speedup;
  });
  return out;
}

TransferReport transfer(ir::Program& target, const std::vector<Pattern>& patterns,
                        const TuningOptions& options) {
  TransferReport report;
  report.time_before = model_whole_program(target, options);

  for (int s = 0; s < static_cast<int>(target.states().size()); ++s) {
    for (const auto& pattern : patterns) {
      // Only the first match of each pattern per state (paper's pruning).
      const ir::State& state = target.states()[static_cast<size_t>(s)];
      bool matched = false;
      for (int p = 0; !matched && p + 1 < static_cast<int>(state.nodes.size()); ++p) {
        const int c = p + 1;  // adjacent pairs keep dataflow order trivially
        const auto& a = state.nodes[static_cast<size_t>(p)];
        const auto& b = state.nodes[static_cast<size_t>(c)];
        if (func_name(a) != pattern.producer || func_name(b) != pattern.consumer) continue;
        if (!has_dependency(a, b)) continue;
        matched = true;
        ++report.candidates_found;

        auto fused = try_fuse(target, s, p, c, pattern.kind,
                              std::string(transform_name(pattern.kind)) + "." + a.label);
        if (!fused) break;
        const double before = model_state_impl(target, state, options);
        const ir::State candidate = with_fused(state, p, c, *fused);
        const double after = model_state_impl(target, candidate, options);
        // Apply only when locally improving (Sec. VI-B, phase 2 guard)...
        if (after >= before) break;
        // ...and, when the differential guard is on, only when the rewritten
        // cutout is oracle-equivalent to the original (the analog of the
        // paper's field-by-field validation of every accepted optimization).
        if (options.verify_transfers && !cutout_equivalent(target, state, candidate, options)) {
          ++report.rejected_by_verify;
          break;
        }
        target.states()[static_cast<size_t>(s)] = candidate;
        ++report.applied;
      }
    }
  }
  target.invalidate_compiled();
  report.time_after = model_whole_program(target, options);
  return report;
}

TransferReport transfer_until_converged(ir::Program& target,
                                        const std::vector<Pattern>& patterns,
                                        const TuningOptions& options, int max_passes) {
  TransferReport total;
  total.time_before = model_whole_program(target, options);
  for (int pass = 0; pass < max_passes; ++pass) {
    const TransferReport r = transfer(target, patterns, options);
    total.candidates_found += r.candidates_found;
    total.applied += r.applied;
    total.rejected_by_verify += r.rejected_by_verify;
    total.time_after = r.time_after;
    if (r.applied == 0) break;
  }
  if (total.time_after == 0) total.time_after = total.time_before;
  return total;
}

int autotune_schedules(ir::Program& program, const TuningOptions& options) {
  int changed = 0;
  for (auto& state : program.states()) {
    for (auto& node : state.nodes) {
      if (node.kind != ir::SNode::Kind::Stencil) continue;
      const bool vertical = xform::is_vertical_solver(*node.stencil);
      const auto candidates =
          sched::enumerate_valid(vertical ? dsl::IterOrder::Forward : dsl::IterOrder::Parallel);
      const sched::Schedule original = node.schedule;
      double best_time = -1;
      sched::Schedule best = original;
      for (auto candidate : candidates) {
        // Orthogonal knobs (local storage, region strategy) are preserved —
        // they are applied by their own transformation passes.
        candidate.region_strategy = original.region_strategy;
        candidate.vertical_cache =
            candidate.k_as_map ? sched::CacheKind::None : original.vertical_cache;
        node.schedule = candidate;
        double t;
        if (options.measure_execution) {
          const ir::State probe{state.name + ":" + node.label, {node}};
          t = measure_state(program, probe, options);
        } else {
          const auto kernels = ir::expand_node(node, program, options.dom, 1);
          t = perf::model_program(kernels, options.machine);
        }
        if (best_time < 0 || t < best_time) {
          best_time = t;
          best = candidate;
        }
      }
      node.schedule = best;
      if (!(best == original)) ++changed;
    }
  }
  program.invalidate_compiled();
  return changed;
}

}  // namespace cyclone::tune
