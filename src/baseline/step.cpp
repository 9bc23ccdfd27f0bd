#include "baseline/step.hpp"
#include "core/util/strings.hpp"

namespace cyclone::baseline {

BaselineModel::BaselineModel(const fv3::FvConfig& config, int num_ranks)
    : config_(config),
      part_(grid::Partitioner::for_ranks(config.npx, num_ranks)),
      comm_(part_.num_ranks()),
      halo_(part_, 3) {
  for (int r = 0; r < part_.num_ranks(); ++r) {
    states_.push_back(std::make_unique<fv3::ModelState>(config_, part_, r));
  }
}

void BaselineModel::exchange_scalar(const std::string& name) {
  std::vector<FieldD*> fields;
  fields.reserve(states_.size());
  for (auto& st : states_) fields.push_back(&st->f(name));
  halo_.exchange_scalar(fields, comm_);
  halo_.fill_cube_corners(fields, comm::CornerFill::XDir);
}

void BaselineModel::exchange_winds() {
  std::vector<FieldD*> u, v;
  for (auto& st : states_) {
    u.push_back(&st->f("u"));
    v.push_back(&st->f("v"));
  }
  halo_.exchange_vector(u, v, comm_);
  halo_.fill_cube_corners(u, comm::CornerFill::XDir);
  halo_.fill_cube_corners(v, comm::CornerFill::YDir);
}

void BaselineModel::exchange_prognostics() {
  exchange_winds();
  for (const auto& name : fv3::ModelState::prognostic_names(config_.ntracers)) {
    if (name == "u" || name == "v") continue;
    exchange_scalar(name);
  }
}

void BaselineModel::step() {
  const double dta = config_.dt_acoustic();
  for (int ks = 0; ks < config_.k_split; ++ks) {
    for (int ns = 0; ns < config_.n_split; ++ns) {
      // Communication point before the C-grid half step.
      exchange_winds();
      for (const char* f : {"delp", "pt", "w", "delz"}) exchange_scalar(f);

      for (auto& st : states_) c_sw(st->catalog(), st->domain(), dta);
      for (auto& st : states_) riem_solver_c(st->catalog(), st->domain(), config_, dta, "wc");
      exchange_scalar("pp");
      for (auto& st : states_) pressure_update(st->catalog(), st->domain(), config_);
      for (auto& st : states_) nh_p_grad(st->catalog(), st->domain(), dta);

      // Winds changed: refresh before the D-grid step.
      exchange_winds();
      exchange_scalar("w");
      for (auto& st : states_) d_sw(st->catalog(), st->domain(), config_, dta);
      for (auto& st : states_) update_dz(st->catalog(), st->domain(), dta);
      if (config_.do_riem_solver3) {
        for (auto& st : states_) riem_solver_c(st->catalog(), st->domain(), config_, dta);
      }
    }

    // Tracer advection with the last acoustic step's Courant numbers.
    for (int t = 0; t < config_.ntracers; ++t) {
      exchange_scalar(str::numbered("q", t));
    }
    exchange_scalar("delp");
    for (auto& st : states_) tracer_2d(st->catalog(), st->domain(), config_);
    if (config_.do_fillz) {
      for (auto& st : states_) {
        for (int t = 0; t < config_.ntracers; ++t) {
          fillz(st->catalog(), st->domain(), str::numbered("q", t));
        }
      }
    }
    if (config_.tracer_diffusion > 0.0) {
      for (int t = 0; t < config_.ntracers; ++t) {
        const std::string q = str::numbered("q", t);
        for (int sub = 0; sub < config_.tracer_diffusion_ntimes; ++sub) {
          for (auto& st : states_) {
            del2_cubed(st->catalog(), st->domain(), q, config_.tracer_diffusion);
          }
        }
      }
    }
    for (auto& st : states_) remap(st->catalog(), st->domain(), config_);
    for (auto& st : states_) {
      rayleigh_damping(st->catalog(), st->domain(), config_, config_.dt_remap());
    }
  }
}

fv3::GlobalDiagnostics BaselineModel::diagnostics() const {
  fv3::GlobalDiagnostics d;
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
    for (int k = 0; k < dom.nk; ++k) {
      for (int j = 0; j < dom.nj; ++j) {
        for (int i = 0; i < dom.ni; ++i) {
          const double cell = delp(i, j, k) * area(i, j, 0);
          d.total_mass += cell;
          if (config_.ntracers > 0) d.tracer_mass_q0 += st->f("q0")(i, j, k) * cell;
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

}  // namespace cyclone::baseline
