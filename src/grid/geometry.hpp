#pragma once

#include "core/field/catalog.hpp"
#include "core/field/field.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::grid {

/// Physical constants used across the model.
constexpr double kEarthRadius = 6.371e6;     // [m]
constexpr double kOmega = 7.292e-5;          // Earth rotation rate [1/s]
constexpr double kGravity = 9.80665;         // [m/s^2]
constexpr double kRdGas = 287.05;            // dry-air gas constant [J/kg/K]
constexpr double kCpAir = 1004.6;            // dry-air heat capacity [J/kg/K]
constexpr double kKappa = kRdGas / kCpAir;

/// Metric terms of one rank's subdomain on the gnomonic cubed sphere,
/// discretized per cell center, all as 2-D fields with halo. Halo cells that
/// belong to a neighboring tile carry that tile's (frame-independent) metric
/// values; cube-corner diagonals extend the own tile's mapping.
struct GridGeometry {
  RankInfo rank_info;
  int halo = 3;

  FieldD lat;    ///< latitude [rad]
  FieldD lon;    ///< longitude [rad]
  FieldD area;   ///< cell area [m^2]
  FieldD rarea;  ///< 1 / area
  FieldD dx;     ///< cell extent along i [m]
  FieldD dy;     ///< cell extent along j [m]
  FieldD cosa;   ///< cosine of the grid-axis angle (non-orthogonality)
  FieldD sina;   ///< sine of the grid-axis angle
  FieldD fcor;   ///< Coriolis parameter 2*Omega*sin(lat) [1/s]

  /// Build metric fields for `rank` of the partitioning.
  static GridGeometry build(const Partitioner& part, int rank, int halo = 3);

  /// Create the metric-term fields stencils address by name (dx, dy, rdx,
  /// rdy, area, rarea, cosa, sina, fcor) in `catalog`, shaped `plane`, and
  /// fill them, halo included.
  void add_metric_fields(FieldCatalog& catalog, const FieldShape& plane) const;
};

}  // namespace cyclone::grid
