#include "core/verify/verify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "core/dsl/analysis.hpp"
#include "core/util/rng.hpp"
#include "core/xform/expr_rewrite.hpp"
#include "core/xform/passes.hpp"

namespace cyclone::verify {

double ulp_distance(double a, double b) {
  if (a == b) return 0.0;  // covers +0/-0
  if (std::isnan(a) && std::isnan(b)) return 0.0;
  if (std::isnan(a) || std::isnan(b) || std::isinf(a) || std::isinf(b)) {
    return std::numeric_limits<double>::infinity();
  }
  // Map the doubles onto a monotone integer line (negative values mirrored),
  // where adjacent representable values differ by exactly 1.
  auto ordered = [](double v) {
    auto bits = std::bit_cast<int64_t>(v);
    return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
  };
  const int64_t ia = ordered(a);
  const int64_t ib = ordered(b);
  const uint64_t dist = ia > ib ? static_cast<uint64_t>(ia) - static_cast<uint64_t>(ib)
                                : static_cast<uint64_t>(ib) - static_cast<uint64_t>(ia);
  return static_cast<double>(dist);
}

FieldDivergence compare_fields_bitwise(const std::string& label, const FieldD& a,
                                       const FieldD& b) {
  FieldDivergence d;
  d.field = label;
  CY_REQUIRE_MSG(a.shape() == b.shape(),
                 "compare_fields_bitwise(" << label << "): shape mismatch");
  const FieldShape& shape = a.shape();
  for (int k = 0; k < shape.nk(); ++k) {
    for (int j = -shape.halo().j; j < shape.nj() + shape.halo().j; ++j) {
      for (int i = -shape.halo().i; i < shape.ni() + shape.halo().i; ++i) {
        const double va = a(i, j, k);
        const double vb = b(i, j, k);
        if (std::bit_cast<uint64_t>(va) == std::bit_cast<uint64_t>(vb)) continue;
        // Bit patterns differ. ulp_distance only ranks how far apart: it is
        // 0 for +0/-0 and for two NaNs, which still fail here.
        const double ulps = ulp_distance(va, vb);
        if (d.ok || ulps > d.max_ulps) {
          d.max_ulps = ulps;
          d.max_abs = std::abs(va - vb);
          d.at_i = i;
          d.at_j = j;
          d.at_k = k;
        }
        d.ok = false;
      }
    }
  }
  d.bits_only = !d.ok && d.max_ulps == 0.0;
  return d;
}

std::vector<exec::LaunchDomain> default_domains() {
  std::vector<exec::LaunchDomain> doms;
  // Bulk whole-tile domain: regions resolve against the domain itself, and
  // the interior stays non-empty even after discarding a deep stale-halo
  // contamination ring of a long fused chain.
  doms.push_back({20, 18, 6});
  // Small whole tile.
  doms.push_back({8, 8, 4});
  // Interior placement on a larger tile: every edge region is empty here.
  {
    exec::LaunchDomain d{5, 4, 4};
    d.gi0 = 4;
    d.gj0 = 3;
    d.gni = 16;
    d.gnj = 16;
    doms.push_back(d);
  }
  // Low-corner placement: i_start/j_start regions owned, end regions not.
  {
    exec::LaunchDomain d{6, 5, 4};
    d.gni = 12;
    d.gnj = 12;
    doms.push_back(d);
  }
  // High-corner placement: i_end/j_end regions owned.
  {
    exec::LaunchDomain d{4, 6, 4};
    d.gi0 = 8;
    d.gj0 = 6;
    d.gni = 12;
    d.gnj = 12;
    doms.push_back(d);
  }
  // Degenerate halo/region shapes: single column and single row, where the
  // whole compute domain sits inside every region width and the apply
  // rectangle clips to one cell line.
  doms.push_back({1, 1, 4});
  {
    exec::LaunchDomain d{3, 1, 5};
    d.gnj = 8;
    doms.push_back(d);
  }
  return doms;
}

namespace {

/// Catalog-level (actual-name) footprint of a program: per-field halo needs
/// and the set of externally written fields.
struct Footprint {
  std::map<std::string, int> halo_i;
  std::map<std::string, int> halo_j;
  std::set<std::string> written;
  /// Accumulated stale-halo contamination depth (see interior_shrink).
  int intermediate_depth = 0;
};

void merge_need(std::map<std::string, int>& m, const std::string& name, int need) {
  auto [it, inserted] = m.emplace(name, need);
  if (!inserted) it->second = std::max(it->second, need);
}

/// Stale-halo contamination depth of one node: the widest horizontal offset
/// at which its outputs (transitively, through stencil-local temporaries)
/// depend on a field some stencil writes. A temporary read at offset 1 whose
/// definition reads an intermediate at offset 1 contaminates to depth 2 —
/// the temp chain composes additively, so depths are propagated statement by
/// statement rather than taken from the aggregate access info.
int node_contamination(const ir::SNode& node, const std::set<std::string>& written) {
  std::map<std::string, int> temp_depth;
  int depth = 0;
  for (const auto& block : node.stencil->blocks()) {
    for (const auto& iv : block.intervals) {
      for (const auto& stmt : iv.body) {
        dsl::AccessInfo acc;
        dsl::collect_accesses(stmt.rhs, acc);
        int d = 0;
        for (const auto& [formal, e] : acc.reads) {
          const int off = std::max({-e.i_lo, e.i_hi, -e.j_lo, e.j_hi, 0});
          if (node.stencil->is_temporary(formal)) {
            const auto it = temp_depth.find(formal);
            d = std::max(d, (it == temp_depth.end() ? 0 : it->second) + off);
          } else if (written.count(node.args.actual(formal))) {
            d = std::max(d, off);
          }
        }
        if (node.stencil->is_temporary(stmt.lhs)) {
          int& td = temp_depth[stmt.lhs];
          td = std::max(td, d);
        } else {
          depth = std::max(depth, d);
        }
      }
    }
  }
  return depth;
}

Footprint footprint_of(const ir::Program& program) {
  Footprint fp;
  for (const auto& state : program.states()) {
    for (const auto& node : state.nodes) {
      if (node.kind == ir::SNode::Kind::HaloExchange) {
        for (const auto& f : node.halo_fields) {
          merge_need(fp.halo_i, f, node.halo_width);
          merge_need(fp.halo_j, f, node.halo_width);
        }
        continue;
      }
      if (node.kind != ir::SNode::Kind::Stencil) continue;
      const dsl::AccessInfo acc = dsl::analyze(*node.stencil);
      const int exti = std::max(node.ext.ilo, node.ext.ihi);
      const int extj = std::max(node.ext.jlo, node.ext.jhi);
      for (const auto& [formal, e] : acc.reads) {
        if (node.stencil->is_temporary(formal)) continue;
        const std::string actual = node.args.actual(formal);
        merge_need(fp.halo_i, actual, std::max(-e.i_lo, e.i_hi) + exti);
        merge_need(fp.halo_j, actual, std::max(-e.j_lo, e.j_hi) + extj);
      }
      for (const auto& [formal, _] : acc.writes) {
        if (node.stencil->is_temporary(formal)) continue;
        const std::string actual = node.args.actual(formal);
        merge_need(fp.halo_i, actual, exti);
        merge_need(fp.halo_j, actual, extj);
        fp.written.insert(actual);
      }
    }
  }
  // Contamination depth: each node reading an *intermediate* (a field some
  // stencil writes) at a horizontal offset pulls one ring of stale halo data
  // into its output near the domain edge; chains accumulate additively, and
  // loop trips re-run the chain (invocation-weighted).
  const auto invocations = program.state_invocations();
  for (size_t s = 0; s < program.states().size(); ++s) {
    int state_depth = 0;
    for (const auto& node : program.states()[s].nodes) {
      if (node.kind != ir::SNode::Kind::Stencil) continue;
      state_depth += node_contamination(node, fp.written);
    }
    fp.intermediate_depth += state_depth * static_cast<int>(invocations[s]);
  }
  return fp;
}

Footprint merge_footprints(const Footprint& a, const Footprint& b) {
  Footprint out = a;
  for (const auto& [name, need] : b.halo_i) merge_need(out.halo_i, name, need);
  for (const auto& [name, need] : b.halo_j) merge_need(out.halo_j, name, need);
  out.written.insert(b.written.begin(), b.written.end());
  out.intermediate_depth = std::max(a.intermediate_depth, b.intermediate_depth);
  return out;
}

FieldCatalog catalog_from_footprint(const ir::Program& meta_source, const Footprint& fp,
                                    const exec::LaunchDomain& dom, uint64_t seed) {
  FieldCatalog cat;
  // std::map iteration keeps field order deterministic across runs.
  for (const auto& [name, hi] : fp.halo_i) {
    const int hj = fp.halo_j.count(name) ? fp.halo_j.at(name) : 0;
    const int levels = meta_source.meta_of(name).levels(dom.nk);
    // +2 margin absorbs write-extent spill of producer statements extended
    // for in-stencil consumers (bounded by in-stencil read extents).
    const HaloSpec halo{std::max(3, hi + 2), std::max(3, hj + 2)};
    auto& f = cat.create(name, dom.ni, dom.nj, levels, halo);
    // Positive fill keeps Div/Sqrt/Log-bearing programs finite; per-field
    // sub-stream so the fill is independent of catalog composition.
    Rng rng = Rng::derive(seed, std::hash<std::string>{}(name));
    f.fill_with([&](int, int, int) { return rng.uniform(0.25, 2.0); });
  }
  return cat;
}

/// Compare `field` between two catalogs over the shrunken interior.
FieldDivergence diverge_field(const std::string& name, const FieldCatalog& a,
                              const FieldCatalog& b, const exec::LaunchDomain& dom, int shrink,
                              const VerifyOptions& options) {
  FieldDivergence d;
  d.field = name;
  const FieldD& fa = a.at(name);
  const FieldD& fb = b.at(name);
  const int i_lo = std::min(shrink, dom.ni);
  const int i_hi = std::max(i_lo, dom.ni - shrink);
  const int j_lo = std::min(shrink, dom.nj);
  const int j_hi = std::max(j_lo, dom.nj - shrink);
  const int nk = std::min(fa.shape().nk(), fb.shape().nk());
  for (int k = 0; k < nk; ++k) {
    for (int j = j_lo; j < j_hi; ++j) {
      for (int i = i_lo; i < i_hi; ++i) {
        const double va = fa(i, j, k);
        const double vb = fb(i, j, k);
        const double abs_diff = std::abs(va - vb);
        const double ulps = ulp_distance(va, vb);
        if (ulps > d.max_ulps) {
          d.max_ulps = ulps;
          d.max_abs = abs_diff;
          d.at_i = i;
          d.at_j = j;
          d.at_k = k;
        }
      }
    }
  }
  d.ok = d.max_ulps <= options.max_ulps || d.max_abs <= options.abs_floor;
  return d;
}

/// How one side of a differential run executes: run options (backend
/// included), and an optional override of every stencil node's schedule
/// tiles (>= 0 applies).
struct ExecConfig {
  exec::RunOptions run{};
  int tile_i = -1;
  int tile_j = -1;
};

/// The oracle side: the serial reference interpreter.
ExecConfig reference_side() {
  ExecConfig cfg;
  cfg.run.backend = exec::ExecBackend::Interpreter;
  return cfg;
}

void configure_side(ir::Program& prog, const ExecConfig& cfg) {
  prog.set_run_options(cfg.run);
  if (cfg.tile_i < 0 && cfg.tile_j < 0) return;
  for (auto& state : prog.states()) {
    for (auto& node : state.nodes) {
      if (node.kind != ir::SNode::Kind::Stencil) continue;
      if (cfg.tile_i >= 0) node.schedule.tile_i = cfg.tile_i;
      if (cfg.tile_j >= 0) node.schedule.tile_j = cfg.tile_j;
    }
  }
}

EquivalenceReport run_differential(const ir::Program& original, const ir::Program& transformed,
                                   const ExecConfig& cfg_a, const ExecConfig& cfg_b,
                                   const VerifyOptions& options) {
  EquivalenceReport report;
  report.data_seed = options.data_seed;

  // Program copies so backend selection never mutates caller state.
  ir::Program prog_a = original;
  ir::Program prog_b = transformed;
  configure_side(prog_a, cfg_a);
  configure_side(prog_b, cfg_b);

  const Footprint fp = merge_footprints(footprint_of(original), footprint_of(transformed));

  const std::vector<exec::LaunchDomain> domains =
      options.domains.empty() ? default_domains() : options.domains;
  const int trials = std::max(1, options.trials);

  for (const auto& dom : domains) {
    const int shrink =
        options.interior_shrink >= 0 ? options.interior_shrink : fp.intermediate_depth;
    for (int trial = 0; trial < trials; ++trial) {
      DomainResult dr;
      dr.dom = dom;
      dr.fill_seed = Rng::mix(options.data_seed, static_cast<uint64_t>(trial));
      FieldCatalog cat_a = catalog_from_footprint(original, fp, dom, dr.fill_seed);
      FieldCatalog cat_b = catalog_from_footprint(original, fp, dom, dr.fill_seed);
      try {
        prog_a.execute(cat_a, dom);
        prog_b.execute(cat_b, dom);
        for (const auto& name : fp.written) {
          if (!options.include_transients && original.meta_of(name).transient) continue;
          dr.fields.push_back(diverge_field(name, cat_a, cat_b, dom, shrink, options));
          dr.ok = dr.ok && dr.fields.back().ok;
        }
      } catch (const std::exception& err) {
        dr.ok = false;
        dr.error = err.what();
      }
      report.equivalent = report.equivalent && dr.ok;
      report.domains.push_back(std::move(dr));
    }
  }
  return report;
}

}  // namespace

FieldCatalog make_test_catalog(const ir::Program& a, const ir::Program& b,
                               const exec::LaunchDomain& dom, uint64_t seed) {
  return catalog_from_footprint(a, merge_footprints(footprint_of(a), footprint_of(b)), dom,
                                seed);
}

EquivalenceReport check_equivalent(const ir::Program& original, const ir::Program& transformed,
                                   const VerifyOptions& options) {
  return run_differential(original, transformed, reference_side(), reference_side(), options);
}

EquivalenceReport check_parallel_agrees(const ir::Program& program, const exec::RunOptions& run,
                                        int tile_i, int tile_j, VerifyOptions options) {
  // The determinism contract is bitwise: no tolerance, no absolute slack.
  options.max_ulps = 0.0;
  options.abs_floor = 0.0;
  return run_differential(program, program, reference_side(), ExecConfig{run, tile_i, tile_j},
                          options);
}

EquivalenceReport check_equivalent_parallel(const ir::Program& original,
                                            const ir::Program& transformed,
                                            const exec::RunOptions& run, int tile_i, int tile_j,
                                            const VerifyOptions& options) {
  return run_differential(original, transformed, reference_side(),
                          ExecConfig{run, tile_i, tile_j}, options);
}

EquivalenceReport check_parallel_determinism(const ir::Program& program,
                                             const VerifyOptions& options) {
  struct Shape {
    int i, j;
  };
  EquivalenceReport last;
  for (int threads : {1, 2, 7}) {
    // -1/-1 keeps whatever tiles the nodes' own schedules carry; the other
    // shapes force skewed tilings whose remainder tiles land off the tile
    // grid on the sweep's degenerate domains.
    for (Shape tile : {Shape{-1, -1}, Shape{8, 3}, Shape{5, 4}}) {
      exec::RunOptions run;
      run.num_threads = threads;
      last = check_parallel_agrees(program, run, tile.i, tile.j, options);
      if (!last.equivalent) return last;
    }
  }
  return last;
}

double EquivalenceReport::worst_ulps() const {
  double worst = 0;
  for (const auto& dr : domains) {
    for (const auto& f : dr.fields) worst = std::max(worst, f.max_ulps);
  }
  return worst;
}

std::string EquivalenceReport::first_failure() const {
  for (const auto& dr : domains) {
    if (dr.ok) continue;
    std::ostringstream os;
    os << "domain " << dr.dom.ni << "x" << dr.dom.nj << "x" << dr.dom.nk << "@(" << dr.dom.gi0
       << "," << dr.dom.gj0 << ")";
    if (!dr.error.empty()) {
      os << ": " << dr.error;
      return os.str();
    }
    for (const auto& f : dr.fields) {
      if (f.ok) continue;
      os << ": field '" << f.field << "' ";
      if (f.bits_only) {
        os << "differs in bit pattern only (signed zero or NaN payload, 0 ulps)";
      } else {
        os << "diverges by " << f.max_abs << " (" << f.max_ulps << " ulps)";
      }
      os << " at (" << f.at_i << "," << f.at_j << "," << f.at_k << ")";
      return os.str();
    }
  }
  return {};
}

std::string EquivalenceReport::summary() const {
  std::ostringstream os;
  os << (equivalent ? "EQUIVALENT" : "NOT EQUIVALENT") << " over " << domains.size()
     << " domain runs (seed " << data_seed << ", worst " << worst_ulps() << " ulps)";
  const std::string fail = first_failure();
  if (!fail.empty()) os << "; " << fail;
  return os.str();
}

ir::Program without_callbacks(const ir::Program& program) {
  ir::Program out = program;
  for (auto& state : out.states()) {
    auto& nodes = state.nodes;
    nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                               [](const ir::SNode& n) {
                                 return n.kind == ir::SNode::Kind::Callback;
                               }),
                nodes.end());
  }
  return out;
}

std::string mutate_program(ir::Program& program, uint64_t seed) {
  return mutate_program(program, seed, MutationClass::Any);
}

std::string mutate_program(ir::Program& program, uint64_t seed, MutationClass cls) {
  // Collect mutation sites: prefer unregioned statements writing externally
  // visible fields (their divergence is observable on every domain of the
  // sweep); fall back to any statement.
  struct Site {
    int state, node, block, interval, stmt;
    bool preferred;
  };
  std::vector<Site> sites;
  for (int s = 0; s < static_cast<int>(program.states().size()); ++s) {
    const auto& state = program.states()[static_cast<size_t>(s)];
    for (int n = 0; n < static_cast<int>(state.nodes.size()); ++n) {
      const auto& node = state.nodes[static_cast<size_t>(n)];
      if (node.kind != ir::SNode::Kind::Stencil) continue;
      const auto& blocks = node.stencil->blocks();
      for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
        const auto& ivs = blocks[static_cast<size_t>(b)].intervals;
        for (int iv = 0; iv < static_cast<int>(ivs.size()); ++iv) {
          const auto& body = ivs[static_cast<size_t>(iv)].body;
          for (int st = 0; st < static_cast<int>(body.size()); ++st) {
            const auto& stmt = body[static_cast<size_t>(st)];
            const bool preferred = !stmt.region.has_value() &&
                                   !node.stencil->is_temporary(stmt.lhs) &&
                                   !program.meta_of(node.args.actual(stmt.lhs)).transient;
            sites.push_back({s, n, b, iv, st, preferred});
          }
        }
      }
    }
  }
  if (sites.empty()) return {};
  Rng rng(seed);
  std::vector<Site> preferred;
  for (const auto& site : sites) {
    if (site.preferred) preferred.push_back(site);
  }
  const auto& pool = preferred.empty() ? sites : preferred;
  const Site site = pool[rng.next_below(pool.size())];

  std::string what;
  auto& node = program.states()[static_cast<size_t>(site.state)]
                   .nodes[static_cast<size_t>(site.node)];
  xform::mutate_stencil(node, [&](dsl::StencilFunc& s) {
    dsl::Stmt& stmt = s.blocks()[static_cast<size_t>(site.block)]
                          .intervals[static_cast<size_t>(site.interval)]
                          .body[static_cast<size_t>(site.stmt)];
    if (cls == MutationClass::TileBoundary) {
      // A buggy tile decomposition either starts a tile one cell late
      // (shifted origin) or never emits the clipped remainder tile at the
      // high edge. Both reduce to a region restriction of the statement, so
      // injecting one reproduces exactly the footprint such a defect leaves.
      dsl::Region cut;
      switch (rng.next_below(4)) {
        case 0:
          cut.i_lo = {true, false, 1};
          what = "shifted tile origin (i) of '" + stmt.lhs + "'";
          break;
        case 1:
          cut.j_lo = {true, false, 1};
          what = "shifted tile origin (j) of '" + stmt.lhs + "'";
          break;
        case 2:
          cut.i_hi = {true, true, -1};
          what = "dropped i remainder tile of '" + stmt.lhs + "'";
          break;
        default:
          cut.j_hi = {true, true, -1};
          what = "dropped j remainder tile of '" + stmt.lhs + "'";
          break;
      }
      stmt.region = stmt.region ? stmt.region->intersect(cut) : cut;
      return;
    }
    switch (rng.next_below(stmt.region ? 4 : 3)) {
      case 0:
        stmt.rhs = dsl::Expr::binary(dsl::BinOp::Add, stmt.rhs, dsl::Expr::literal(1e-3));
        what = "biased '" + stmt.lhs + "' by 1e-3";
        break;
      case 1:
        stmt.rhs = dsl::Expr::binary(dsl::BinOp::Mul, stmt.rhs,
                                     dsl::Expr::literal(1.0 + 0x1p-20));
        what = "scaled '" + stmt.lhs + "' by (1 + 2^-20)";
        break;
      case 2:
        stmt.rhs = xform::shift_expr(stmt.rhs, 1, 0, 0);
        what = "shifted reads of '" + stmt.lhs + "' by i+1";
        break;
      default:
        stmt.region.reset();
        what = "dropped region restriction on '" + stmt.lhs + "'";
        break;
    }
  });
  program.invalidate_compiled();
  return what + " in " + node.label;
}

namespace {

void json_escape(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Finite JSON number (inf/nan are rendered as huge sentinels).
void json_number(std::ostringstream& os, double v) {
  if (std::isnan(v)) {
    os << "\"nan\"";
  } else if (std::isinf(v)) {
    os << "\"inf\"";
  } else {
    os << v;
  }
}

}  // namespace

std::string report_to_json(const EquivalenceReport& report) {
  std::ostringstream os;
  os << "{\"equivalent\":" << (report.equivalent ? "true" : "false")
     << ",\"data_seed\":" << report.data_seed << ",\"worst_ulps\":";
  json_number(os, report.worst_ulps());
  os << ",\"domains\":[";
  for (size_t d = 0; d < report.domains.size(); ++d) {
    const auto& dr = report.domains[d];
    if (d) os << ',';
    os << "{\"ni\":" << dr.dom.ni << ",\"nj\":" << dr.dom.nj << ",\"nk\":" << dr.dom.nk
       << ",\"gi0\":" << dr.dom.gi0 << ",\"gj0\":" << dr.dom.gj0
       << ",\"ok\":" << (dr.ok ? "true" : "false");
    if (!dr.error.empty()) {
      os << ",\"error\":";
      json_escape(os, dr.error);
    }
    os << ",\"fields\":[";
    for (size_t f = 0; f < dr.fields.size(); ++f) {
      const auto& fd = dr.fields[f];
      if (f) os << ',';
      os << "{\"field\":";
      json_escape(os, fd.field);
      os << ",\"ok\":" << (fd.ok ? "true" : "false") << ",\"max_abs\":";
      json_number(os, fd.max_abs);
      os << ",\"max_ulps\":";
      json_number(os, fd.max_ulps);
      if (fd.bits_only) os << ",\"bits_only\":true";
      os << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace cyclone::verify
