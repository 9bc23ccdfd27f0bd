#include "fv3/stencils/remap.hpp"

#include "core/dsl/builder.hpp"
#include "core/util/strings.hpp"
#include "fv3/stencils/pressure.hpp"

namespace cyclone::fv3 {

using namespace dsl;  // NOLINT: stencil definitions read like the math

dsl::StencilFunc build_remap_prep() {
  StencilBuilder b("remap_prep");
  auto pe = b.field("pe");
  auto pe_ref = b.field("pe_ref");
  auto ak = b.field("ak");
  auto bk = b.field("bk");
  auto ps = b.field("ps");
  auto dpr = b.field("dpr");
  (void)pe;

  auto c = b.parallel();
  c.interval(make_interval(KBound{0, false}, KBound{1, true}))
      .assign(pe_ref, E(ak) + E(bk) * E(ps));
  auto c2 = b.parallel();
  c2.interval(full_interval()).assign(dpr, pe_ref.at_k(1) - E(pe_ref));
  return b.build();
}

dsl::StencilFunc build_remap_field(const std::string& name) {
  StencilBuilder b(name);
  auto q = b.field("q");
  auto delp = b.field("delp");
  auto dpr = b.field("dpr");
  auto pe = b.field("pe");
  auto pe_ref = b.field("pe_ref");
  auto fz = b.temp("fz");

  // Upwind mass flux across each interface's displacement pe - pe_ref.
  // fz(0) is zero by the explicit interval; fz(nk) is zero by construction
  // (pe_ref(nk) == pe(nk) == ps), so column mass of q telescopes exactly.
  auto c = b.parallel();
  c.interval(first_levels(1)).assign(fz, 0.0);
  c.interval(make_interval(KBound{1, false}, KBound{0, true}))
      .assign(fz, (E(pe) - E(pe_ref)) * select(E(pe) > E(pe_ref), q.at_k(-1), E(q)));
  // fz(k) is the flux through the cell's *top* interface; the bottom flux of
  // the last layer (interface nk) is zero by construction, hence the split
  // interval — it also keeps every fz read inside the written range.
  auto c2 = b.parallel();
  c2.interval(inner_levels(0, 1))
      .assign(q, (E(q) * E(delp) + E(fz) - fz.at_k(1)) / E(dpr));
  c2.interval(last_levels(1)).assign(q, (E(q) * E(delp) + E(fz)) / E(dpr));
  return b.build();
}

dsl::StencilFunc build_remap_finalize() {
  StencilBuilder b("remap_finalize");
  auto delp = b.field("delp");
  auto delz = b.field("delz");
  auto dpr = b.field("dpr");

  auto c = b.parallel().full();
  c.assign(delz, E(delz) * E(dpr) / E(delp));
  c.assign(delp, E(dpr));
  return b.build();
}

std::vector<ir::SNode> remap_nodes(const FvConfig& config,
                                   const sched::Schedule& vertical_schedule) {
  std::vector<ir::SNode> nodes;

  exec::StencilArgs pe_args;
  pe_args.params["ptop"] = config.ptop;
  nodes.push_back(ir::SNode::make_stencil("remap.pe_update", build_pe_update(config), pe_args,
                                          vertical_schedule));
  nodes.push_back(
      ir::SNode::make_stencil("remap.prep", build_remap_prep(), {}, vertical_schedule));

  // One remap sweep per prognostic field; the tracer loop is unrolled here
  // at build time (the orchestration constant-propagation analog).
  std::vector<std::string> fields = {"u", "v", "w", "pt"};
  for (int t = 0; t < config.ntracers; ++t) fields.push_back(str::numbered("q", t));
  for (const auto& field : fields) {
    exec::StencilArgs args;
    args.bind["q"] = field;
    nodes.push_back(ir::SNode::make_stencil("remap." + field, build_remap_field(), args,
                                            vertical_schedule));
  }
  nodes.push_back(
      ir::SNode::make_stencil("remap.finalize", build_remap_finalize(), {}, vertical_schedule));
  return nodes;
}

}  // namespace cyclone::fv3
