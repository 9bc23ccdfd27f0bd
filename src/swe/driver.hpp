#pragma once

#include <memory>
#include <vector>

#include "fv3/model_driver.hpp"
#include "swe/state.hpp"
#include "swe/swe_core.hpp"

namespace cyclone::swe {

/// Global integrals used for validation (mass conservation, stability).
struct SweDiagnostics {
  double total_mass = 0;      ///< sum h * area (propto fluid mass)
  double tracer_mass_q0 = 0;  ///< sum q0 * h * area
  double max_wind = 0;        ///< max |u|, |v|
  double min_h = 0;           ///< minimum depth (positivity check)

  [[nodiscard]] bool finite() const;
};

/// Runs the shallow-water core on all ranks of a simulated cubed-sphere
/// decomposition. Shares its scheduler plumbing with fv3::DistributedModel
/// through fv3::ModelDriver: one comm layer, one halo-exchange path, both
/// schedulers (lockstep reference and thread-per-rank concurrent), and the
/// resilient run loop — so every runtime feature is exercised by two
/// independent program shapes.
class SweModel : public fv3::ModelDriver {
 public:
  /// `placers` optionally supplies a per-rank FieldPlacer routing every
  /// state-field allocation into external storage (the ensemble runtime's
  /// member-major arenas); empty = each state owns its fields. `program`
  /// optionally supplies a prepared program of the same config to adopt a
  /// copy of (sharing its compiled executors) instead of building one;
  /// `schedules` are then unused.
  SweModel(const SweConfig& config, int num_ranks,
           const SweSchedules& schedules = SweSchedules::tuned(),
           const std::function<FieldPlacer(int rank)>& placers = {},
           const ir::Program* program = nullptr);

  [[nodiscard]] SweState& state(int rank) { return *states_[static_cast<size_t>(rank)]; }

  [[nodiscard]] SweDiagnostics diagnostics() const;

 private:
  SweConfig config_;
  std::vector<std::unique_ptr<SweState>> states_;
};

}  // namespace cyclone::swe
