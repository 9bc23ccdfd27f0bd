#include "fv3/stencils/damping.hpp"

#include "core/dsl/builder.hpp"
#include "core/util/strings.hpp"
#include "fv3/stencils/functions.hpp"

namespace cyclone::fv3 {

using namespace dsl;  // NOLINT: stencil definitions read like the math

dsl::StencilFunc build_rayleigh_damping() {
  StencilBuilder b("rayleigh_damping");
  auto u = b.field("u");
  auto v = b.field("v");
  auto w = b.field("w");
  auto pe = b.field("pe");
  auto dt = b.param("dt");
  auto cutoff = b.param("rf_cutoff");
  auto rf0 = b.param("rf_coeff");
  auto pmid = b.temp("pmid");

  auto c = b.parallel().full();
  c.assign(pmid, fn::mid_k(pe));
  // Damping rate ramps in smoothly below the cutoff pressure:
  //   rate = rf0 * sin(pi/2 * (cutoff - p) / cutoff)^2  for p < cutoff.
  E ramp = sin(1.5707963267948966 * (E(cutoff) - E(pmid)) / E(cutoff));
  E factor = 1.0 / (1.0 + E(dt) * E(rf0) * ramp * ramp);
  c.assign(u, select(E(pmid) < E(cutoff), E(u) * factor, E(u)));
  c.assign(v, select(E(pmid) < E(cutoff), E(v) * factor, E(v)));
  c.assign(w, select(E(pmid) < E(cutoff), E(w) * factor, E(w)));
  return b.build();
}

ir::SNode rayleigh_damping_node(const FvConfig& config, double dt_remap,
                                const sched::Schedule& horizontal_schedule) {
  exec::StencilArgs args;
  args.params["dt"] = dt_remap;
  args.params["rf_cutoff"] = config.rf_cutoff;
  args.params["rf_coeff"] = config.rf_coeff;
  return ir::SNode::make_stencil("rayleigh_damping", build_rayleigh_damping(), args,
                                 horizontal_schedule);
}

dsl::StencilFunc build_del2_cubed(const std::string& name) {
  StencilBuilder b(name);
  auto q = b.field("q");
  auto rdx = b.field("rdx");
  auto rdy = b.field("rdy");
  auto cd = b.param("cd");

  auto c = b.parallel().full();
  c.assign(q, E(q) + E(cd) * fn::laplacian(q, rdx, rdy));
  return b.build();
}

std::vector<ir::SNode> del2_cubed_nodes(const FvConfig& config, double coefficient, int ntimes,
                                        const sched::Schedule& horizontal_schedule) {
  std::vector<ir::SNode> nodes;
  for (int t = 0; t < config.ntracers; ++t) {
    const std::string q = str::numbered("q", t);
    for (int sub = 0; sub < ntimes; ++sub) {
      exec::StencilArgs args;
      args.params["cd"] = coefficient;
      args.bind["q"] = q;
      nodes.push_back(ir::SNode::make_stencil(
          "del2_cubed." + q + "_" + std::to_string(sub), build_del2_cubed(), args,
          horizontal_schedule));
    }
  }
  return nodes;
}

dsl::StencilFunc build_fillz(const std::string& name) {
  StencilBuilder b(name);
  auto q = b.field("q");
  auto delp = b.field("delp");
  auto qa = b.temp("qa");
  auto deficit = b.temp("deficit");  // borrowed mass [tracer * delp units]

  // Top-down sweep: a negative cell borrows from the level below; the
  // bottom level simply clips (as FV3's fillz does).
  auto f = b.forward();
  f.interval(first_levels(1))
      .assign(qa, E(q))
      .assign(deficit, max(0.0 - E(qa), 0.0) * E(delp))
      .assign(q, max(E(qa), 0.0));
  f.interval(inner_levels(1, 0))
      .assign(qa, E(q) - deficit.at_k(-1) / E(delp))
      .assign(deficit, max(0.0 - E(qa), 0.0) * E(delp))
      .assign(q, max(E(qa), 0.0));
  return b.build();
}

std::vector<ir::SNode> fillz_nodes(const FvConfig& config,
                                   const sched::Schedule& vertical_schedule) {
  std::vector<ir::SNode> nodes;
  for (int t = 0; t < config.ntracers; ++t) {
    exec::StencilArgs args;
    args.bind["q"] = str::numbered("q", t);
    nodes.push_back(ir::SNode::make_stencil("fillz.q" + std::to_string(t), build_fillz(), args,
                                            vertical_schedule));
  }
  return nodes;
}

}  // namespace cyclone::fv3
