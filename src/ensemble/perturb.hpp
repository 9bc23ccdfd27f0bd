#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/field/field.hpp"
#include "fv3/driver.hpp"
#include "swe/driver.hpp"

namespace cyclone::ensemble {

/// Identity of one ensemble member's perturbation stream: `seed` names the
/// experiment, `index` the member within it. Index 0 is the unperturbed
/// control by convention (SEEDS/GEFS keep a control member too). Two
/// requests with different seeds can share one batch — the spec, not the
/// batch slot, determines the member's initial condition.
struct MemberSpec {
  uint64_t seed = 0;
  int index = 0;

  friend bool operator==(const MemberSpec&, const MemberSpec&) = default;
};

/// Multiplicative IC perturbation factor for one grid cell: a pure function
/// of (spec, field name, tile, global i, global j, k, amplitude), uniform in
/// [1 - amplitude, 1 + amplitude). Because the factor depends only on
/// *global* coordinates, a member's initial condition is identical across
/// processes, decompositions, and batch layouts — which is what makes the
/// batched-vs-solo 0-ULP contract possible. Index 0 always returns 1.0.
double perturbation_factor(const MemberSpec& spec, std::string_view field, int tile, int gi,
                           int gj, int k, double amplitude);

/// Scale the compute domain of `field` in place by the perturbation factor.
/// (gi0, gj0) place local (0, 0) on tile `tile`. Halos are left stale — the
/// caller re-exchanges prognostic halos afterwards, so halo cells agree with
/// their owning rank bit-for-bit on every decomposition.
void perturb_field(FieldD& field, const MemberSpec& spec, int tile, int gi0, int gj0,
                   double amplitude);

/// Perturb every prognostic field of every rank, then re-exchange prognostic
/// halos. The same helper serves batched members and their solo replicas, so
/// both see exactly the same stores in the same order.
void perturb_model(fv3::DistributedModel& model, const MemberSpec& spec, double amplitude);
void perturb_model(swe::SweModel& model, const MemberSpec& spec, double amplitude);

/// Named initial-condition dispatch matching the corpus scenario vocabulary:
/// dycore {"baro", "solid"}, SWE {"hill", "vortex", "jet"}. Throws on
/// unknown names.
void apply_initial_condition(fv3::DistributedModel& model, const std::string& ic);
void apply_initial_condition(swe::SweModel& model, const std::string& ic);

/// A snapshot of one model's unperturbed initial state: every field of every
/// rank that holds a non-zero bit, halo included. Fields of a freshly built
/// model start zero (owned fields and fresh arena slots alike) except what
/// the state constructor fills identically in every model of a shape, so
/// restoring the snapshot into a fresh model of the same shape leaves it
/// bitwise equal to a fresh apply_initial_condition — without re-evaluating
/// the analytic case or re-exchanging its halos. Restore only into a model
/// nothing has written since construction.
class InitialState {
 public:
  static InitialState capture(fv3::ModelDriver& model);
  void restore(fv3::ModelDriver& model) const;

  [[nodiscard]] size_t bytes() const;

 private:
  struct Saved {
    int rank = 0;
    std::string name;
    std::vector<double> values;  ///< the whole allocation, halo and padding included
  };
  std::vector<Saved> fields_;
};

}  // namespace cyclone::ensemble
