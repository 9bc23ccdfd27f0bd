#include "fv3/driver.hpp"

#include <algorithm>
#include <cmath>

namespace cyclone::fv3 {

bool GlobalDiagnostics::finite() const {
  for (double v : {total_mass, tracer_mass_q0, max_wind, max_w, mean_pt}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

DistributedModel::DistributedModel(const FvConfig& config, int num_ranks,
                                   const DycoreSchedules& schedules,
                                   const std::function<FieldPlacer(int rank)>& placers,
                                   const ir::Program* program)
    : ModelDriver(config.npx, num_ranks), config_(config) {
  for (int r = 0; r < this->num_ranks(); ++r) {
    states_.push_back(std::make_unique<ModelState>(config_, partitioner(), r,
                                                   placers ? placers(r) : FieldPlacer{}));
  }
  adopt(states_, program ? *program : build_dycore_program(*states_[0], schedules),
        ModelState::prognostic_names(config_.ntracers));
}

GlobalDiagnostics DistributedModel::diagnostics() const {
  GlobalDiagnostics d;
  double pt_sum = 0;
  long pt_count = 0;
  for (const auto& st : states_) {
    const auto& dom = st->domain();
    const FieldD& delp = st->f("delp");
    const FieldD& area = st->f("area");
    const FieldD& u = st->f("u");
    const FieldD& v = st->f("v");
    const FieldD& w = st->f("w");
    const FieldD& pt = st->f("pt");
    const bool has_q0 = config_.ntracers > 0;
    for (int k = 0; k < dom.nk; ++k) {
      for (int j = 0; j < dom.nj; ++j) {
        for (int i = 0; i < dom.ni; ++i) {
          const double cell = delp(i, j, k) * area(i, j, 0);
          d.total_mass += cell;
          if (has_q0) d.tracer_mass_q0 += st->f("q0")(i, j, k) * cell;
          d.max_wind = std::max({d.max_wind, std::abs(u(i, j, k)), std::abs(v(i, j, k))});
          d.max_w = std::max(d.max_w, std::abs(w(i, j, k)));
          pt_sum += pt(i, j, k);
          ++pt_count;
        }
      }
    }
  }
  d.mean_pt = pt_count ? pt_sum / static_cast<double>(pt_count) : 0.0;
  return d;
}

}  // namespace cyclone::fv3
