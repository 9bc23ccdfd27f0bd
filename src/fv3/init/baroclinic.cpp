#include "fv3/init/baroclinic.hpp"

#include <cmath>

#include "core/util/strings.hpp"
#include "grid/cube_topology.hpp"
#include "grid/geometry.hpp"

namespace cyclone::fv3 {

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

/// Project a (east, north) wind onto the local grid basis.
void project_wind(int tile, double ic, double jc, int n, double u_east, double v_north,
                  double& u_grid, double& v_grid) {
  const Vec3 p = grid::cell_center_xyz(tile, ic, jc, n);
  const double lat = std::asin(p[2]);
  const double lon = std::atan2(p[1], p[0]);
  const Vec3 east = {-std::sin(lon), std::cos(lon), 0.0};
  const Vec3 north = {-std::sin(lat) * std::cos(lon), -std::sin(lat) * std::sin(lon),
                      std::cos(lat)};
  const Vec3 wind = {u_east * east[0] + v_north * north[0], u_east * east[1] + v_north * north[1],
                     u_east * east[2] + v_north * north[2]};
  Vec3 ei, ej;
  grid_basis(tile, ic, jc, n, ei, ej);
  // Contravariant components on the (non-orthogonal) gnomonic basis: solve
  // the 2x2 Gram system so that u_grid*ei + v_grid*ej reproduces the wind's
  // tangential part exactly (plain dot products would alias the two
  // components near cube corners).
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

}  // namespace

void init_baroclinic(ModelState& state, const grid::Partitioner& part,
                     const BaroclinicCase& params) {
  const FvConfig& cfg = state.config();
  const grid::RankInfo& info = state.geometry().rank_info;
  const int n = part.n();
  const int nk = cfg.npz;
  const int halo = state.geometry().halo;

  FieldD& u = state.f("u");
  FieldD& v = state.f("v");
  FieldD& w = state.f("w");
  FieldD& delp = state.f("delp");
  FieldD& pt = state.f("pt");
  FieldD& delz = state.f("delz");
  FieldD& ps = state.f("ps");
  const FieldD& ak = state.f("ak");
  const FieldD& bk = state.f("bk");

  for (int lj = -halo; lj < info.nj + halo; ++lj) {
    for (int li = -halo; li < info.ni + halo; ++li) {
      const double ic = info.i0 + li;
      const double jc = info.j0 + lj;
      const grid::LatLon ll = grid::cell_center_latlon(info.tile, ic, jc, n);

      // Zonal jet peaked in mid-latitudes, plus a localized perturbation.
      const double jet = params.u0 * std::pow(std::sin(2.0 * ll.lat), 2.0);
      const double r = great_circle_dist(ll.lat, ll.lon, params.pert_lat, params.pert_lon);
      const double pert =
          params.u_pert * std::exp(-std::pow(r / params.pert_radius, 2.0));
      double ug = 0, vg = 0;
      project_wind(info.tile, ic, jc, n, jet + pert, 0.0, ug, vg);

      const double ps_val = cfg.p_surf;
      ps(li, lj) = ps_val;

      // Meridional temperature structure (warm equator, cold poles) with a
      // mild vertical lapse; potential-temperature-like variable.
      const double t_surf = params.t0 - params.delta_t * std::pow(std::sin(ll.lat), 2.0);

      for (int k = 0; k < nk; ++k) {
        const double pe_lo = ak(li, lj, k) + bk(li, lj, k) * ps_val;
        const double pe_hi = ak(li, lj, k + 1) + bk(li, lj, k + 1) * ps_val;
        const double p_mid = 0.5 * (pe_lo + pe_hi);
        const double temp = t_surf * std::pow(p_mid / cfg.p_surf, 0.19);

        u(li, lj, k) = ug;
        v(li, lj, k) = vg;
        w(li, lj, k) = 0.0;
        delp(li, lj, k) = pe_hi - pe_lo;
        pt(li, lj, k) = temp;
        // Hydrostatic layer thickness (positive-definite convention).
        delz(li, lj, k) = grid::kRdGas * temp / grid::kGravity * std::log(pe_hi / pe_lo);
      }
    }
  }

  // Tracers: blob / constant / step / latitude band.
  for (int t = 0; t < cfg.ntracers; ++t) {
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
        for (int k = 0; k < cfg.npz; ++k) q(li, lj, k) = value;
      }
    }
  }
}

void init_baroclinic(DistributedModel& model, const BaroclinicCase& params) {
  for (int r = 0; r < model.num_ranks(); ++r) {
    init_baroclinic(model.state(r), model.partitioner(), params);
  }
  model.exchange_prognostics();
}

std::unique_ptr<DistributedModel> baroclinic_model(const FvConfig& config, int num_ranks) {
  auto model = std::make_unique<DistributedModel>(config, num_ranks);
  init_baroclinic(*model);
  return model;
}

void init_solid_body(ModelState& state, const grid::Partitioner& part, double speed) {
  BaroclinicCase calm;
  calm.u0 = 0.0;
  calm.u_pert = 0.0;
  calm.delta_t = 0.0;
  init_baroclinic(state, part, calm);

  const grid::RankInfo& info = state.geometry().rank_info;
  const int halo = state.geometry().halo;
  FieldD& u = state.f("u");
  FieldD& v = state.f("v");
  for (int lj = -halo; lj < info.nj + halo; ++lj) {
    for (int li = -halo; li < info.ni + halo; ++li) {
      const double ic = info.i0 + li;
      const double jc = info.j0 + lj;
      const grid::LatLon ll = grid::cell_center_latlon(info.tile, ic, jc, part.n());
      double ug = 0, vg = 0;
      project_wind(info.tile, ic, jc, part.n(), speed * std::cos(ll.lat), 0.0, ug, vg);
      for (int k = 0; k < state.config().npz; ++k) {
        u(li, lj, k) = ug;
        v(li, lj, k) = vg;
      }
    }
  }
}

}  // namespace cyclone::fv3
