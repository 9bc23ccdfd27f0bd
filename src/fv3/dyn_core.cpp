#include "fv3/dyn_core.hpp"

#include "core/util/strings.hpp"
#include "fv3/stencils/c_sw.hpp"
#include "fv3/stencils/damping.hpp"
#include "fv3/stencils/d_sw.hpp"
#include "fv3/stencils/fv_tp2d.hpp"
#include "fv3/stencils/pressure.hpp"
#include "fv3/stencils/remap.hpp"
#include "fv3/stencils/riem_solver.hpp"
#include "fv3/stencils/tracer.hpp"
#include "fv3/stencils/update_dz.hpp"

namespace cyclone::fv3 {

namespace {

ir::CFNode halo_state(ir::Program& program, const std::string& name,
                      std::vector<std::string> scalars, bool with_winds) {
  ir::State st{name, {}};
  if (with_winds) {
    st.nodes.push_back(ir::SNode::make_halo_exchange(name + ".uv", {"u", "v"}, 3, true));
  }
  if (!scalars.empty()) {
    st.nodes.push_back(ir::SNode::make_halo_exchange(name + ".scalars", std::move(scalars), 3));
  }
  return ir::CFNode::state_ref(program.add_state(std::move(st)));
}

}  // namespace

std::vector<ir::CFNode> build_acoustic_states(ir::Program& program, const FvConfig& config,
                                              const DycoreSchedules& schedules) {
  const double dta = config.dt_acoustic();
  std::vector<ir::CFNode> seq;

  // Communication point before the C-grid half step (Fig. 2).
  seq.push_back(halo_state(program, "halo_pre_c", {"delp", "pt", "w", "delz"}, true));

  seq.push_back(ir::CFNode::state_ref(
      program.add_state(ir::State{"c_sw", c_sw_nodes(config, dta, schedules.horizontal)})));

  seq.push_back(ir::CFNode::state_ref(program.add_state(ir::State{
      "riem_solver_c",
      riem_solver_nodes(config, dta, schedules.vertical, "riem_solver_c", "wc")})));

  // The solved pressure perturbation is differentiated horizontally next.
  seq.push_back(halo_state(program, "halo_pp", {"pp"}, false));

  seq.push_back(ir::CFNode::state_ref(program.add_state(ir::State{
      "pressure", pressure_nodes(config, schedules.vertical, schedules.horizontal)})));

  seq.push_back(ir::CFNode::state_ref(program.add_state(
      ir::State{"nh_p_grad", {nh_p_grad_node(config, dta, schedules.horizontal)}})));

  // The pressure-gradient force touched the winds; refresh their halos
  // before the D-grid step consumes them at offsets (Fig. 2 comm point).
  seq.push_back(halo_state(program, "halo_uv_d", {"w"}, true));

  seq.push_back(ir::CFNode::state_ref(
      program.add_state(ir::State{"d_sw", d_sw_nodes(config, dta, schedules.horizontal)})));

  seq.push_back(ir::CFNode::state_ref(program.add_state(
      ir::State{"update_dz", {update_dz_node(config, dta, schedules.horizontal)}})));

  if (config.do_riem_solver3) {
    // Second (D-grid) Riemann solve — the module whose near-duplication the
    // paper's Sec. IV-D concessions discuss.
    seq.push_back(ir::CFNode::state_ref(program.add_state(ir::State{
        "riem_solver3",
        riem_solver_nodes(config, dta, schedules.vertical, "riem_solver3")})));
  }

  return seq;
}

std::vector<ir::CFNode> build_remap_step_states(ir::Program& program, const FvConfig& config,
                                                const DycoreSchedules& schedules) {
  std::vector<ir::CFNode> seq;

  // Tracer transport (sub-cycled; red hexagon in Fig. 2). Courant numbers
  // are reused from the last acoustic step's d_sw.
  std::vector<std::string> tracers;
  for (int t = 0; t < config.ntracers; ++t) tracers.push_back(str::numbered("q", t));
  if (!tracers.empty()) {
    // delp's halo went stale during the acoustic loop; the mass-weighted
    // transport needs it alongside the tracers.
    std::vector<std::string> exchange = tracers;
    exchange.push_back("delp");
    seq.push_back(halo_state(program, "halo_tracers", std::move(exchange), false));
    seq.push_back(ir::CFNode::state_ref(program.add_state(
        ir::State{"tracer_2d", tracer_2d_nodes(config, schedules.horizontal)})));
  }

  // Tracer hygiene: vertical positivity filling and optional horizontal
  // diffusion (FV3's fillz / del2_cubed).
  if (config.ntracers > 0 && config.do_fillz) {
    seq.push_back(ir::CFNode::state_ref(
        program.add_state(ir::State{"fillz", fillz_nodes(config, schedules.vertical)})));
  }
  if (config.ntracers > 0 && config.tracer_diffusion > 0.0) {
    seq.push_back(ir::CFNode::state_ref(program.add_state(ir::State{
        "del2_cubed", del2_cubed_nodes(config, config.tracer_diffusion,
                                       config.tracer_diffusion_ntimes,
                                       schedules.horizontal)})));
  }

  // Vertical remapping (green hexagon).
  seq.push_back(ir::CFNode::state_ref(
      program.add_state(ir::State{"remap", remap_nodes(config, schedules.vertical)})));

  // Sponge-layer Rayleigh damping at the model top (Fig. 2).
  seq.push_back(ir::CFNode::state_ref(program.add_state(ir::State{
      "rayleigh_damping",
      {rayleigh_damping_node(config, config.dt_remap(), schedules.horizontal)}})));
  return seq;
}

ir::Program build_dycore_program(const ModelState& state, const DycoreSchedules& schedules) {
  const FvConfig& config = state.config();
  ir::Program program("fv3_dycore");
  state.register_meta(program);

  std::vector<ir::CFNode> remap_body;
  {
    auto acoustic = build_acoustic_states(program, config, schedules);
    remap_body.push_back(ir::CFNode::loop("n_split", config.n_split, std::move(acoustic)));
  }
  {
    auto tail = build_remap_step_states(program, config, schedules);
    remap_body.insert(remap_body.end(), tail.begin(), tail.end());
  }
  program.control_flow().children.push_back(
      ir::CFNode::loop("k_split", config.k_split, std::move(remap_body)));
  return program;
}

}  // namespace cyclone::fv3
