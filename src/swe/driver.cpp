#include "swe/driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cyclone::swe {

bool SweDiagnostics::finite() const {
  for (double v : {total_mass, tracer_mass_q0, max_wind, min_h}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

SweModel::SweModel(const SweConfig& config, int num_ranks, const SweSchedules& schedules,
                   const std::function<FieldPlacer(int rank)>& placers,
                   const ir::Program* program)
    : ModelDriver(config.npx, num_ranks), config_(config) {
  for (int r = 0; r < this->num_ranks(); ++r) {
    states_.push_back(std::make_unique<SweState>(config_, partitioner(), r,
                                                 placers ? placers(r) : FieldPlacer{}));
  }
  adopt(states_, program ? *program : build_swe_program(*states_[0], schedules),
        SweState::prognostic_names(config_.ntracers));
}

SweDiagnostics SweModel::diagnostics() const {
  SweDiagnostics d;
  d.min_h = std::numeric_limits<double>::infinity();
  for (const auto& st : states_) {
    const auto& dom = st->domain();
    const FieldD& h = st->f("h");
    const FieldD& area = st->f("area");
    const FieldD& u = st->f("u");
    const FieldD& v = st->f("v");
    const bool has_q0 = config_.ntracers > 0;
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) {
        const double cell = h(i, j) * area(i, j);
        d.total_mass += cell;
        if (has_q0) d.tracer_mass_q0 += st->f("q0")(i, j) * cell;
        d.max_wind = std::max({d.max_wind, std::abs(u(i, j)), std::abs(v(i, j))});
        d.min_h = std::min(d.min_h, h(i, j));
      }
    }
  }
  return d;
}

}  // namespace cyclone::swe
