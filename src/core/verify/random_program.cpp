#include "core/verify/random_program.hpp"

#include <string>
#include <vector>

#include "core/dsl/builder.hpp"
#include "core/sched/schedule.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"

namespace cyclone::verify {

namespace {

using dsl::E;
using dsl::FieldVar;
using dsl::StencilBuilder;

/// One readable operand: the handle plus whether offset reads are allowed
/// (offsets on already-written intermediates deepen the stale-halo ring the
/// checker must discard, so they are rationed).
struct Leaf {
  FieldVar var;
  bool offsets = true;
};

E leaf_access(Rng& rng, const Leaf& leaf) {
  if (!leaf.offsets || rng.next_below(2) == 0) return leaf.var(0, 0);
  const int di = static_cast<int>(rng.next_below(3)) - 1;
  const int dj = static_cast<int>(rng.next_below(3)) - 1;
  return leaf.var(di, dj);
}

/// Random expression over `leaves`; always finite on positive inputs
/// (division and roots are guarded), with optional pow sites so strength
/// reduction has something to rewrite.
E random_expr(Rng& rng, const std::vector<Leaf>& leaves, int depth, bool allow_pow) {
  if (depth <= 0 || rng.next_below(4) == 0) {
    if (rng.next_below(6) == 0) return E(rng.uniform(0.2, 2.0));
    return leaf_access(rng, leaves[rng.next_below(leaves.size())]);
  }
  const E a = random_expr(rng, leaves, depth - 1, allow_pow);
  const E b = random_expr(rng, leaves, depth - 1, allow_pow);
  switch (rng.next_below(allow_pow ? 8 : 7)) {
    case 0: return a + b;
    case 1: return a - b;
    case 2: return a * b * 0.5;
    case 3: return dsl::min(a, b);
    case 4: return dsl::max(a, b);
    case 5: return a / (dsl::abs(b) + 0.5);
    case 6: return dsl::select(a > b, a, b + 0.25);
    default: {
      static const double exponents[] = {2.0, 3.0, -1.0, 0.5};
      return dsl::pow(dsl::abs(a) + 0.5, E(exponents[rng.next_below(4)]));
    }
  }
}

dsl::Region random_region(Rng& rng) {
  const int w = 1 + static_cast<int>(rng.next_below(2));
  switch (rng.next_below(4)) {
    case 0: return dsl::region_i_start(w);
    case 1: return dsl::region_i_end(w);
    case 2: return dsl::region_j_start(w);
    default: return dsl::region_j_end(w);
  }
}

sched::Schedule random_schedule(Rng& rng, bool vertical) {
  if (rng.next_below(2) == 0) {
    return vertical ? sched::tuned_vertical() : sched::tuned_horizontal();
  }
  const auto valid =
      sched::enumerate_valid(vertical ? dsl::IterOrder::Forward : dsl::IterOrder::Parallel);
  return valid[rng.next_below(valid.size())];
}

}  // namespace

ir::Program random_program(uint64_t seed, const RandomProgramOptions& options) {
  Rng rng(seed);
  ir::Program program("fuzz_" + std::to_string(seed));

  const int n_inputs = 2 + static_cast<int>(rng.next_below(2));
  std::vector<std::string> available;  // catalog names readable by the next node
  for (int i = 0; i < n_inputs; ++i) {
    const std::string name = "in" + std::to_string(i);
    available.push_back(name);
    // Occasionally a single-plane input (broadcast over k) or an
    // interface-staggered input, exercising level bookkeeping.
    if (i > 0 && rng.next_below(4) == 0) {
      program.set_field_meta(name, ir::FieldMeta{rng.next_below(2) == 0
                                                     ? ir::FieldKind::Plane2D
                                                     : ir::FieldKind::Interface3D,
                                                 false});
    }
  }

  const int n_nodes = 1 + static_cast<int>(rng.next_below(
                              static_cast<uint64_t>(std::max(1, options.max_nodes))));
  ir::State state{"s0", {}};

  for (int n = 0; n < n_nodes; ++n) {
    const std::string out_name = str::numbered("f", n);
    const bool use_bind =
        options.allow_bindings && rng.next_below(4) == 0;  // formal->actual renaming
    StencilBuilder b("fuzz_node" + std::to_string(n));
    exec::StencilArgs args;

    // Declare operands; under binding, formals xK map onto the actual names.
    std::vector<Leaf> leaves;
    int formal_id = 0;
    auto declare = [&](const std::string& actual, bool offsets) {
      std::string formal = actual;
      if (use_bind) {
        formal = str::numbered("x", formal_id++);
        args.bind[formal] = actual;
      }
      leaves.push_back({b.field(formal), offsets});
      return leaves.back();
    };

    // Each node reads 1-3 of the available fields; offset reads of already
    // written fields (n > 0 entries beyond the inputs) are rationed to keep
    // the stale-halo contamination ring shallow.
    const int n_reads = 1 + static_cast<int>(rng.next_below(
                                std::min<uint64_t>(3, available.size())));
    std::vector<char> taken(available.size(), 0);
    for (int r = 0; r < n_reads; ++r) {
      const size_t pick = rng.next_below(available.size());
      if (taken[pick]) continue;
      taken[pick] = 1;
      const bool is_intermediate = available[pick].rfind("f", 0) == 0;
      declare(available[pick], !is_intermediate || rng.next_below(2) == 0);
    }
    if (leaves.empty()) declare(available[0], true);

    Leaf out = declare(out_name, false);

    // Optional scalar parameter, bound in the node args (constant-propagated
    // away by orchestration).
    std::optional<dsl::ParamVar> param;
    if (options.allow_params && rng.next_below(3) == 0) {
      param = b.param("alpha");
      args.params["alpha"] = rng.uniform(0.5, 1.5);
    }
    auto maybe_scaled = [&](E e) { return param ? std::move(e) * E(*param) : e; };

    const bool vertical = options.allow_vertical && rng.next_below(4) == 0;
    if (vertical) {
      // Scan template: seed level then a carried recurrence, FORWARD or
      // BACKWARD; the carry reads the output at the already-computed level.
      const bool forward = rng.next_below(2) == 0;
      auto c = forward ? b.forward() : b.backward();
      const E base = maybe_scaled(random_expr(rng, leaves, 2, false));
      const E update = random_expr(rng, leaves, 2, false);
      const E carry = out.var.at_k(forward ? -1 : 1);
      E combined = 0.0;
      switch (rng.next_below(3)) {
        case 0: combined = carry * 0.5 + update; break;
        case 1: combined = dsl::max(carry, update); break;
        default: combined = carry + update * 0.25; break;
      }
      if (forward) {
        c.interval(dsl::first_levels(1)).assign(out.var, base);
        c.interval(dsl::Interval{{1, false}, {0, true}}).assign(out.var, combined);
      } else {
        c.interval(dsl::last_levels(1)).assign(out.var, base);
        c.interval(dsl::Interval{{0, false}, {-1, true}}).assign(out.var, combined);
      }
    } else {
      auto c = b.parallel();
      // Optional stencil-local temporary feeding the output statements.
      std::optional<Leaf> temp;
      if (options.allow_temporaries && rng.next_below(3) == 0) {
        temp = Leaf{b.temp("t" + std::to_string(n)), true};
      }
      const bool split = rng.next_below(4) == 0;  // two disjoint k intervals
      const int split_at = 1 + static_cast<int>(rng.next_below(
                                   static_cast<uint64_t>(options.min_nk - 1)));
      std::vector<dsl::IntervalCtx> ivs;
      if (split) {
        ivs.push_back(c.interval(dsl::first_levels(split_at)));
        ivs.push_back(c.interval(dsl::Interval{{split_at, false}, {0, true}}));
      } else {
        ivs.push_back(c.full());
      }
      for (auto& iv : ivs) {
        std::vector<Leaf> scope = leaves;
        if (temp) {
          iv.assign(temp->var, random_expr(rng, scope, 2, true));
          scope.push_back(*temp);
        }
        iv.assign(out.var, maybe_scaled(random_expr(rng, scope, 3, true)));
        // Region-restricted specializations over the base assignment; exact
        // duplicates are generated on purpose (prune_regions dedup fodder).
        if (options.allow_regions) {
          int n_regions = static_cast<int>(rng.next_below(3));
          while (n_regions-- > 0) {
            const dsl::Region region = random_region(rng);
            const E rhs = random_expr(rng, scope, 2, false);
            iv.assign_in(region, out.var, rhs);
            if (rng.next_below(3) == 0) iv.assign_in(region, out.var, rhs);
          }
        }
      }
    }

    state.nodes.push_back(ir::SNode::make_stencil(str::numbered("n", n), b.build(),
                                                  std::move(args),
                                                  random_schedule(rng, vertical)));
    // Intermediates are transient half the time (fusion may demote them);
    // the final output stays externally observable.
    if (n + 1 < n_nodes && rng.next_below(2) == 0) {
      program.set_field_meta(out_name, ir::FieldMeta{ir::FieldKind::Center3D, true});
    }
    available.push_back(out_name);
  }
  program.append_state(std::move(state));

  // Optional second state consuming the chain tail (cross-state dataflow for
  // the whole-program passes) and an optional counted loop around it.
  if (options.allow_second_state && rng.next_below(3) == 0) {
    StencilBuilder b("fuzz_tail");
    std::vector<Leaf> leaves{{b.field(available.back()), false},
                             {b.field(available.front()), true}};
    auto g = b.field("g0");
    b.parallel().full().assign(g, random_expr(rng, leaves, 3, true));
    program.append_state(
        ir::State{"s1", {ir::SNode::make_stencil("tail", b.build(), {},
                                                 sched::tuned_horizontal())}});
    if (rng.next_below(4) == 0) {
      auto& root = program.control_flow();
      ir::CFNode last = root.children.back();
      root.children.back() = ir::CFNode::loop("rep", 2, {last});
    }
  }
  return program;
}

}  // namespace cyclone::verify
