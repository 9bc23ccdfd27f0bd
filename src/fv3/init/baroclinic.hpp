#pragma once

#include <memory>

#include "fv3/driver.hpp"
#include "fv3/state.hpp"

namespace cyclone::fv3 {

/// Parameters of the baroclinic-instability test case (after Ullrich et
/// al. 2014, paper Sec. IX): a balanced zonal jet with a localized
/// perturbation that grows into a baroclinic wave. Analytic, so any domain
/// size can be generated.
struct BaroclinicCase {
  double u0 = 35.0;          ///< jet amplitude [m/s]
  double u_pert = 1.0;       ///< perturbation amplitude [m/s]
  double pert_lon = 0.35;    ///< perturbation center longitude [rad]
  double pert_lat = 0.70;    ///< perturbation center latitude [rad]
  double pert_radius = 0.2;  ///< perturbation radius [rad]
  double t0 = 288.0;         ///< reference surface temperature [K]
  double delta_t = 40.0;     ///< equator-pole temperature contrast [K]
};

/// Initialize one rank's state with the baroclinic-wave fields: balanced
/// zonal flow projected onto the local grid basis, hydrostatic delp/delz
/// from the hybrid coordinate, temperature with a meridional gradient, and
/// tracer distributions (a Gaussian blob, a conserved constant, a step, and
/// a latitude band).
void init_baroclinic(ModelState& state, const grid::Partitioner& part,
                     const BaroclinicCase& params = {});

/// Initialize every rank of a distributed model and exchange halos.
void init_baroclinic(DistributedModel& model, const BaroclinicCase& params = {});

/// A distributed model at the baroclinic initial state: the dycore as a
/// subject of the distributed 0-ULP checks (comm/verify_distributed.hpp),
/// which take its program(), partitioner(), halo width 3 and, as the
/// starting state, its rank_domains().
std::unique_ptr<DistributedModel> baroclinic_model(const FvConfig& config, int num_ranks);

/// Solid-body-rotation flow (u = const * cos(lat) eastward) — a smooth
/// advection test whose tracer field must circle the sphere unchanged.
void init_solid_body(ModelState& state, const grid::Partitioner& part, double speed = 20.0);

}  // namespace cyclone::fv3
