#include "swe/init.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/util/strings.hpp"
#include "grid/cube_topology.hpp"
#include "grid/geometry.hpp"

namespace cyclone::swe {

namespace {

using Vec3 = std::array<double, 3>;

Vec3 norm3(Vec3 v) {
  const double m = std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  return {v[0] / m, v[1] / m, v[2] / m};
}

/// Local grid basis (unit tangents along i and j) at a cell of a tile.
void grid_basis(int tile, double ic, double jc, int n, Vec3& ei, Vec3& ej) {
  constexpr double kH = 1e-4;
  const Vec3 p0 = grid::cell_center_xyz(tile, ic, jc, n);
  const Vec3 pi = grid::cell_center_xyz(tile, ic + kH, jc, n);
  const Vec3 pj = grid::cell_center_xyz(tile, ic, jc + kH, n);
  ei = norm3({pi[0] - p0[0], pi[1] - p0[1], pi[2] - p0[2]});
  ej = norm3({pj[0] - p0[0], pj[1] - p0[1], pj[2] - p0[2]});
}

/// Project a (east, north) wind onto the local (non-orthogonal) grid basis:
/// contravariant components via the 2x2 Gram system, as the dycore's
/// baroclinic initializer does.
void project_wind(int tile, double ic, double jc, int n, double u_east, double v_north,
                  double& u_grid, double& v_grid) {
  const Vec3 p = grid::cell_center_xyz(tile, ic, jc, n);
  const double lat = std::asin(p[2]);
  const double lon = std::atan2(p[1], p[0]);
  const Vec3 east = {-std::sin(lon), std::cos(lon), 0.0};
  const Vec3 north = {-std::sin(lat) * std::cos(lon), -std::sin(lat) * std::sin(lon),
                      std::cos(lat)};
  const Vec3 wind = {u_east * east[0] + v_north * north[0],
                     u_east * east[1] + v_north * north[1],
                     u_east * east[2] + v_north * north[2]};
  Vec3 ei, ej;
  grid_basis(tile, ic, jc, n, ei, ej);
  const double wi = wind[0] * ei[0] + wind[1] * ei[1] + wind[2] * ei[2];
  const double wj = wind[0] * ej[0] + wind[1] * ej[1] + wind[2] * ej[2];
  const double g12 = ei[0] * ej[0] + ei[1] * ej[1] + ei[2] * ej[2];
  const double det = 1.0 - g12 * g12;
  u_grid = (wi - g12 * wj) / det;
  v_grid = (wj - g12 * wi) / det;
}

double great_circle_dist(double lat1, double lon1, double lat2, double lon2) {
  const double s = std::sin(lat1) * std::sin(lat2) +
                   std::cos(lat1) * std::cos(lat2) * std::cos(lon1 - lon2);
  return std::acos(std::clamp(s, -1.0, 1.0));
}

/// Tracer initial shapes: blob / constant / step / latitude band, cycled by
/// index (the dycore's convention, so tracer sweeps compare like for like).
void init_tracers(SweState& state, const grid::Partitioner& part) {
  const grid::RankInfo& info = state.geometry().rank_info;
  const int halo = state.geometry().halo;
  const int n = part.n();
  for (int t = 0; t < state.config().ntracers; ++t) {
    FieldD& q = state.f(str::numbered("q", t));
    for (int lj = -halo; lj < info.nj + halo; ++lj) {
      for (int li = -halo; li < info.ni + halo; ++li) {
        const grid::LatLon ll =
            grid::cell_center_latlon(info.tile, info.i0 + li, info.j0 + lj, n);
        const double r = great_circle_dist(ll.lat, ll.lon, 0.0, 1.0);
        double value = 0.0;
        switch (t % 4) {
          case 0: value = std::exp(-std::pow(r / 0.5, 2.0)); break;
          case 1: value = 1.0; break;
          case 2: value = r < 0.8 ? 1.0 : 0.0; break;
          default: value = 0.5 * (1.0 + std::sin(ll.lat)); break;
        }
        q(li, lj) = value;
      }
    }
  }
}

/// Visit every halo-extended cell of the rank with its global placement.
template <typename Fn>
void for_each_cell(SweState& state, const grid::Partitioner& part, Fn&& fn) {
  const grid::RankInfo& info = state.geometry().rank_info;
  const int halo = state.geometry().halo;
  for (int lj = -halo; lj < info.nj + halo; ++lj) {
    for (int li = -halo; li < info.ni + halo; ++li) {
      const double ic = info.i0 + li;
      const double jc = info.j0 + lj;
      const grid::LatLon ll = grid::cell_center_latlon(info.tile, ic, jc, part.n());
      fn(li, lj, ic, jc, ll);
    }
  }
}

}  // namespace

void init_gaussian_hill(SweState& state, const grid::Partitioner& part,
                        const GaussianHillCase& params) {
  FieldD& h = state.f("h");
  FieldD& u = state.f("u");
  FieldD& v = state.f("v");
  const double h0 = state.config().h0;
  for_each_cell(state, part, [&](int li, int lj, double, double, const grid::LatLon& ll) {
    const double r = great_circle_dist(ll.lat, ll.lon, params.lat0, params.lon0);
    h(li, lj) = h0 + params.amp * std::exp(-std::pow(r / params.radius, 2.0));
    u(li, lj) = 0.0;
    v(li, lj) = 0.0;
  });
  init_tracers(state, part);
}

void init_zonal_flow(SweState& state, const grid::Partitioner& part,
                     const ZonalFlowCase& params) {
  FieldD& h = state.f("h");
  FieldD& u = state.f("u");
  FieldD& v = state.f("v");
  const grid::RankInfo& info = state.geometry().rank_info;
  const double h0 = state.config().h0;
  const double u0 = params.u0;
  for_each_cell(state, part, [&](int li, int lj, double ic, double jc,
                                 const grid::LatLon& ll) {
    const double s = std::sin(ll.lat);
    h(li, lj) = h0 - (grid::kEarthRadius * grid::kOmega * u0 + 0.5 * u0 * u0) * s * s /
                         grid::kGravity;
    double ug = 0, vg = 0;
    project_wind(info.tile, ic, jc, part.n(), u0 * std::cos(ll.lat), 0.0, ug, vg);
    u(li, lj) = ug;
    v(li, lj) = vg;
  });
  init_tracers(state, part);
}

void init_vortex(SweState& state, const grid::Partitioner& part, const VortexCase& params) {
  FieldD& h = state.f("h");
  FieldD& u = state.f("u");
  FieldD& v = state.f("v");
  const grid::RankInfo& info = state.geometry().rank_info;
  const double h0 = state.config().h0;
  const Vec3 c = {std::cos(params.lat0) * std::cos(params.lon0),
                  std::cos(params.lat0) * std::sin(params.lon0), std::sin(params.lat0)};
  for_each_cell(state, part, [&](int li, int lj, double ic, double jc,
                                 const grid::LatLon& ll) {
    const double r = great_circle_dist(ll.lat, ll.lon, params.lat0, params.lon0);
    const double x = r / params.radius;
    h(li, lj) = h0 - params.amp * std::exp(-x * x);

    // Tangential unit vector (counterclockwise around the vortex center):
    // t = normalize(c x p), decomposed into east/north at the point.
    const Vec3 p = grid::cell_center_xyz(info.tile, ic, jc, part.n());
    Vec3 t = {c[1] * p[2] - c[2] * p[1], c[2] * p[0] - c[0] * p[2],
              c[0] * p[1] - c[1] * p[0]};
    const double tm = std::sqrt(t[0] * t[0] + t[1] * t[1] + t[2] * t[2]);
    double u_east = params.drift * std::cos(ll.lat);
    double v_north = 0.0;
    if (tm > 1e-12) {
      t = {t[0] / tm, t[1] / tm, t[2] / tm};
      const Vec3 east = {-std::sin(ll.lon), std::cos(ll.lon), 0.0};
      const Vec3 north = {-std::sin(ll.lat) * std::cos(ll.lon),
                          -std::sin(ll.lat) * std::sin(ll.lon), std::cos(ll.lat)};
      const double vt = params.vmax * x * std::exp(0.5 * (1.0 - x * x));
      u_east += vt * (t[0] * east[0] + t[1] * east[1] + t[2] * east[2]);
      v_north += vt * (t[0] * north[0] + t[1] * north[1] + t[2] * north[2]);
    }
    double ug = 0, vg = 0;
    project_wind(info.tile, ic, jc, part.n(), u_east, v_north, ug, vg);
    u(li, lj) = ug;
    v(li, lj) = vg;
  });
  init_tracers(state, part);
}

void init_gaussian_hill(SweModel& model, const GaussianHillCase& params) {
  for (int r = 0; r < model.num_ranks(); ++r) {
    init_gaussian_hill(model.state(r), model.partitioner(), params);
  }
  model.exchange_prognostics();
}

void init_zonal_flow(SweModel& model, const ZonalFlowCase& params) {
  for (int r = 0; r < model.num_ranks(); ++r) {
    init_zonal_flow(model.state(r), model.partitioner(), params);
  }
  model.exchange_prognostics();
}

void init_vortex(SweModel& model, const VortexCase& params) {
  for (int r = 0; r < model.num_ranks(); ++r) {
    init_vortex(model.state(r), model.partitioner(), params);
  }
  model.exchange_prognostics();
}

}  // namespace cyclone::swe
