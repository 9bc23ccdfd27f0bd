#include "grid/geometry.hpp"

#include <cmath>

namespace cyclone::grid {

namespace {

using Vec3 = std::array<double, 3>;

Vec3 sphere_point(int tile, double icell, double jcell, int n) {
  return cell_center_xyz(tile, icell, jcell, n);
}

Vec3 sub(const Vec3& a, const Vec3& b) { return {a[0] - b[0], a[1] - b[1], a[2] - b[2]}; }
Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]};
}
double norm(const Vec3& a) { return std::sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2]); }
double dot(const Vec3& a, const Vec3& b) { return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]; }

/// Per-cell metric data computed from the gnomonic mapping.
struct CellMetric {
  double lat, lon, area, dx, dy, cosa, sina;
};

CellMetric metric_at(int tile, double icell, double jcell, int n) {
  constexpr double kH = 1e-3;  // finite-difference step in cell units
  const Vec3 p = sphere_point(tile, icell, jcell, n);
  // Centered differences: a one-sided stencil biases the tangents by
  // O(kH * d2p/dj2) toward +i/+j, which breaks the grid's mirror symmetry
  // (dy at (i, j) and (i, n-1-j) on an equatorial tile differed by ~3e-5
  // relative — visible as spurious asymmetry in mirror-symmetric flows).
  const Vec3 pim = sphere_point(tile, icell - kH, jcell, n);
  const Vec3 pip = sphere_point(tile, icell + kH, jcell, n);
  const Vec3 pjm = sphere_point(tile, icell, jcell - kH, n);
  const Vec3 pjp = sphere_point(tile, icell, jcell + kH, n);

  Vec3 ti = sub(pip, pim);
  Vec3 tj = sub(pjp, pjm);
  // Tangents per unit cell index, scaled to meters.
  for (auto& c : ti) c *= kEarthRadius / (2.0 * kH);
  for (auto& c : tj) c *= kEarthRadius / (2.0 * kH);

  CellMetric m;
  m.lat = std::asin(p[2]);
  m.lon = std::atan2(p[1], p[0]);
  m.dx = norm(ti);
  m.dy = norm(tj);
  m.area = norm(cross(ti, tj));  // |ti x tj| * (1 cell)^2
  const double ca = dot(ti, tj) / (m.dx * m.dy);
  m.cosa = ca;
  m.sina = std::sqrt(std::max(1.0 - ca * ca, 1e-12));
  return m;
}

}  // namespace

GridGeometry GridGeometry::build(const Partitioner& part, int rank, int halo) {
  GridGeometry g;
  g.rank_info = part.info(rank);
  g.halo = halo;
  const int ni = g.rank_info.ni, nj = g.rank_info.nj;
  const HaloSpec hs{halo, halo};
  const FieldShape shape(ni, nj, 1, hs);
  g.lat = FieldD("lat", shape);
  g.lon = FieldD("lon", shape);
  g.area = FieldD("area", shape);
  g.rarea = FieldD("rarea", shape);
  g.dx = FieldD("dx", shape);
  g.dy = FieldD("dy", shape);
  g.cosa = FieldD("cosa", shape);
  g.sina = FieldD("sina", shape);
  g.fcor = FieldD("fcor", shape);

  const int n = part.n();
  for (int lj = -halo; lj < nj + halo; ++lj) {
    for (int li = -halo; li < ni + halo; ++li) {
      const int gi = g.rank_info.i0 + li;
      const int gj = g.rank_info.j0 + lj;
      // Use the owning tile's metric for halo cells when one exists so
      // exchanged data and local metric agree; extend the own mapping at
      // cube-corner diagonals.
      int tile = g.rank_info.tile;
      double ic = gi, jc = gj;
      if (const auto cell = resolve_cell(g.rank_info.tile, gi, gj, n)) {
        tile = cell->tile;
        ic = cell->i;
        jc = cell->j;
      }
      const CellMetric m = metric_at(tile, ic, jc, n);
      g.lat(li, lj) = m.lat;
      g.lon(li, lj) = m.lon;
      g.area(li, lj) = m.area;
      g.rarea(li, lj) = 1.0 / m.area;
      g.dx(li, lj) = m.dx;
      g.dy(li, lj) = m.dy;
      g.cosa(li, lj) = m.cosa;
      g.sina(li, lj) = m.sina;
      g.fcor(li, lj) = 2.0 * kOmega * std::sin(m.lat);
    }
  }
  return g;
}

void GridGeometry::add_metric_fields(FieldCatalog& catalog, const FieldShape& plane) const {
  // Bind each field once: a catalog lookup per cell costs more than the copy.
  FieldD& c_dx = catalog.create("dx", plane);
  FieldD& c_dy = catalog.create("dy", plane);
  FieldD& c_rdx = catalog.create("rdx", plane);
  FieldD& c_rdy = catalog.create("rdy", plane);
  FieldD& c_area = catalog.create("area", plane);
  FieldD& c_rarea = catalog.create("rarea", plane);
  FieldD& c_cosa = catalog.create("cosa", plane);
  FieldD& c_sina = catalog.create("sina", plane);
  FieldD& c_fcor = catalog.create("fcor", plane);
  for (int j = -halo; j < rank_info.nj + halo; ++j) {
    for (int i = -halo; i < rank_info.ni + halo; ++i) {
      c_dx(i, j) = dx(i, j);
      c_dy(i, j) = dy(i, j);
      c_rdx(i, j) = 1.0 / dx(i, j);
      c_rdy(i, j) = 1.0 / dy(i, j);
      c_area(i, j) = area(i, j);
      c_rarea(i, j) = rarea(i, j);
      c_cosa(i, j) = cosa(i, j);
      c_sina(i, j) = sina(i, j);
      c_fcor(i, j) = fcor(i, j);
    }
  }
}

}  // namespace cyclone::grid
