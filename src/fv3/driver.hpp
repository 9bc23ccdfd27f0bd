#pragma once

#include <memory>
#include <vector>

#include "fv3/dyn_core.hpp"
#include "fv3/model_driver.hpp"
#include "fv3/state.hpp"

namespace cyclone::fv3 {

/// Global integrals used for validation (mass conservation, stability).
struct GlobalDiagnostics {
  double total_mass = 0;        ///< sum delp * area (propto air mass)
  double tracer_mass_q0 = 0;    ///< sum q0 * delp * area
  double max_wind = 0;          ///< max |u|, |v|
  double max_w = 0;
  double mean_pt = 0;

  [[nodiscard]] bool finite() const;
};

/// Runs the dycore on all ranks of a simulated cubed-sphere decomposition;
/// the schedulers (lockstep and concurrent), run options and the resilient
/// run loop come from ModelDriver.
class DistributedModel : public ModelDriver {
 public:
  /// `placers` optionally supplies a per-rank FieldPlacer routing every
  /// state-field allocation into external storage (the ensemble runtime's
  /// member-major arenas); empty = each state owns its fields. `program`
  /// optionally supplies a prepared program of the same config to adopt a
  /// copy of (sharing its compiled executors) instead of building one;
  /// `schedules` are then unused. A built program runs the production pass
  /// list (fv3::kProductionPasses); an adopted copy is not passed again.
  DistributedModel(const FvConfig& config, int num_ranks,
                   const DycoreSchedules& schedules = DycoreSchedules::tuned(),
                   const std::function<FieldPlacer(int rank)>& placers = {},
                   const ir::Program* program = nullptr);

  [[nodiscard]] ModelState& state(int rank) { return *states_[static_cast<size_t>(rank)]; }

  [[nodiscard]] GlobalDiagnostics diagnostics() const;

 private:
  FvConfig config_;
  std::vector<std::unique_ptr<ModelState>> states_;
};

}  // namespace cyclone::fv3
