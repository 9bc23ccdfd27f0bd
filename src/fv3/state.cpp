#include "fv3/state.hpp"

#include <cmath>

#include "comm/runtime.hpp"
#include "core/util/strings.hpp"

namespace cyclone::fv3 {

namespace {

constexpr int kHalo = 3;

/// Transient intermediates of the acoustic step (no one outside the program
/// observes them between steps).
const char* const kTransients[] = {
    "uc",  "vc",  "ut",  "vt",  "divg", "vort", "ke",  "delpc", "ptc", "wc",
    "crx", "cry", "fx",  "fy",  "fx2",  "fy2",  "fxw", "fyw",   "damp",
    "pp",  "aa",  "bb",  "cc",  "rhs",  "gam",  "pem", "fz",    "dpr",
    "qm",  "dp2", "divg2",
};

}  // namespace

ModelState::ModelState(const FvConfig& config, const grid::Partitioner& part, int rank,
                       FieldPlacer placer)
    : config_(config), geom_(grid::GridGeometry::build(part, rank, kHalo)) {
  config_.validate();
  catalog_.set_placer(std::move(placer));
  const grid::RankInfo& info = geom_.rank_info;
  domain_ = comm::launch_domain(part, rank, config_.npz);

  const int ni = info.ni, nj = info.nj, nk = config_.npz;
  const HaloSpec hs{kHalo, kHalo};
  const FieldShape c3d(ni, nj, nk, hs);
  const FieldShape i3d(ni, nj, nk + 1, hs);
  const FieldShape p2d(ni, nj, 1, hs);

  // Prognostics.
  for (const char* name : {"u", "v", "w", "delp", "pt", "delz"}) catalog_.create(name, c3d);
  for (int t = 0; t < config_.ntracers; ++t) catalog_.create(str::numbered("q", t), c3d);

  // Acoustic-step / remap intermediates.
  for (const char* name : kTransients) {
    const std::string n(name);
    catalog_.create(name, (n == "pem" || n == "fz") ? i3d : c3d);
  }
  catalog_.create("omga", c3d);

  // Interface (nk + 1) fields.
  for (const char* name : {"pe", "pk", "peln", "gz", "pe_ref"}) catalog_.create(name, i3d);

  // Vertical-coordinate coefficient fields, broadcast over the horizontal
  // (GT4Py has no K-only axis fields either; see DESIGN.md).
  catalog_.create("ak", i3d);
  catalog_.create("bk", i3d);

  // Surface fields.
  catalog_.create("ps", p2d);

  // Metric terms (copied so stencils can address them by name).
  geom_.add_metric_fields(catalog_, p2d);

  // Hybrid vertical coordinate: pe_ref(k) = ak(k) + bk(k) * ps.
  FieldD& ak_field = catalog_.at("ak");
  FieldD& bk_field = catalog_.at("bk");
  for (int k = 0; k <= nk; ++k) {
    const double frac = static_cast<double>(k) / nk;
    const double bk = std::pow(frac, 1.2);
    const double ak = config_.ptop * (1.0 - bk);
    for (int j = -kHalo; j < nj + kHalo; ++j) {
      for (int i = -kHalo; i < ni + kHalo; ++i) {
        ak_field(i, j, k) = ak;
        bk_field(i, j, k) = bk;
      }
    }
  }
}

std::vector<std::string> ModelState::tracer_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(config_.ntracers));
  for (int t = 0; t < config_.ntracers; ++t) names.push_back(str::numbered("q", t));
  return names;
}

std::vector<std::string> ModelState::prognostic_names(int ntracers) {
  std::vector<std::string> names = {"u", "v", "w", "delp", "pt", "delz"};
  for (int t = 0; t < ntracers; ++t) names.push_back(str::numbered("q", t));
  return names;
}

void ModelState::register_meta(ir::Program& program) const {
  using ir::FieldKind;
  using ir::FieldMeta;
  for (const char* name : {"pe", "pk", "peln", "gz", "pe_ref", "ak", "bk"}) {
    program.set_field_meta(name, FieldMeta{FieldKind::Interface3D, false});
  }
  for (const char* name :
       {"ps", "dx", "dy", "rdx", "rdy", "area", "rarea", "cosa", "sina", "fcor"}) {
    program.set_field_meta(name, FieldMeta{FieldKind::Plane2D, false});
  }
  for (const char* name : kTransients) {
    FieldMeta meta;
    meta.transient = true;
    const std::string n(name);
    if (n == "pem" || n == "fz") meta.kind = FieldKind::Interface3D;
    program.set_field_meta(name, meta);
  }
}

}  // namespace cyclone::fv3
