#include "swe/state.hpp"

#include "comm/runtime.hpp"
#include "core/util/strings.hpp"

namespace cyclone::swe {

namespace {

constexpr int kHalo = 3;

/// Transient intermediates of the SWE substep (nothing outside the program
/// observes them between steps). Names deliberately overlap the dycore's —
/// each core owns its catalog, and shared names let the transport stencils
/// (fv_tp_2d, flux updates, tracer mass bookkeeping) be reused verbatim.
const char* const kTransients[] = {
    "vort", "divg", "ke", "crx", "cry", "fx", "fy", "fx2", "fy2",
    "qm",   "dp2",  "ut", "vt",  "damp",
};

}  // namespace

SweState::SweState(const SweConfig& config, const grid::Partitioner& part, int rank,
                   FieldPlacer placer)
    : config_(config), geom_(grid::GridGeometry::build(part, rank, kHalo)) {
  config_.validate();
  catalog_.set_placer(std::move(placer));
  const grid::RankInfo& info = geom_.rank_info;
  domain_ = comm::launch_domain(part, rank, 1);

  const HaloSpec hs{kHalo, kHalo};
  const FieldShape p2d(info.ni, info.nj, 1, hs);

  // Prognostics.
  for (const char* name : {"h", "u", "v"}) catalog_.create(name, p2d);
  for (int t = 0; t < config_.ntracers; ++t) catalog_.create(str::numbered("q", t), p2d);

  // Substep intermediates.
  for (const char* name : kTransients) catalog_.create(name, p2d);

  // Metric terms (copied so stencils can address them by name).
  geom_.add_metric_fields(catalog_, p2d);
}

std::vector<std::string> SweState::tracer_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(config_.ntracers));
  for (int t = 0; t < config_.ntracers; ++t) names.push_back(str::numbered("q", t));
  return names;
}

std::vector<std::string> SweState::prognostic_names(int ntracers) {
  std::vector<std::string> names = {"h", "u", "v"};
  for (int t = 0; t < ntracers; ++t) names.push_back(str::numbered("q", t));
  return names;
}

void SweState::register_meta(ir::Program& program) const {
  using ir::FieldKind;
  using ir::FieldMeta;
  // Every SWE field is a single horizontal plane.
  for (const auto& name : catalog_.names()) {
    FieldMeta meta;
    meta.kind = FieldKind::Plane2D;
    program.set_field_meta(name, meta);
  }
  for (const char* name : kTransients) {
    FieldMeta meta;
    meta.kind = FieldKind::Plane2D;
    meta.transient = true;
    program.set_field_meta(name, meta);
  }
}

}  // namespace cyclone::swe
