#include "fv3/model_driver.hpp"

#include <stdexcept>

#include "core/exec/engine.hpp"
#include "core/verify/pipeline.hpp"
#include "fv3/serialization.hpp"

namespace cyclone::fv3 {

void apply_production_passes(ir::Program& program, const exec::LaunchDomain& dom) {
  for (const std::string_view name : kProductionPasses) {
    const verify::PassResult r = verify::apply_pass(program, std::string(name), dom);
    if (!r.known || r.placement_dependent) {
      throw std::logic_error("production pass " + r.name + " is unknown or placement-dependent");
    }
  }
}

ModelDriver::ModelDriver(int npx, int num_ranks)
    : part_(grid::Partitioner::for_ranks(npx, num_ranks)),
      comm_(part_.num_ranks()),
      halo_(part_, 3) {}

void ModelDriver::set_run_options(const exec::RunOptions& run) {
  program_.set_run_options(run);
  // Lockstep halo nodes pack and unpack ranks on the compute team's size.
  halo_.set_num_threads(exec::resolved_num_threads(run));
  runtime_.reset();  // the runtime's program copy carries the old options
}

void ModelDriver::set_runtime_options(const comm::RuntimeOptions& options) {
  runtime_options_ = options;
  runtime_.reset();
}

comm::ConcurrentRuntime& ModelDriver::concurrent_runtime() {
  if (!runtime_) {
    comm::RuntimeOptions options = runtime_options_;
    options.run = program_.run_options();
    // Warm program_ itself, so every runtime built from it (after a change
    // of options, say) shares one set of executors.
    program_.precompile();
    runtime_ = std::make_unique<comm::ConcurrentRuntime>(program_, halo_, ranks_, options);
  }
  return *runtime_;
}

comm::RunReport ModelDriver::run_resilient(int steps) {
  set_exec_mode(ExecMode::Concurrent);
  comm::ConcurrentRuntime& rt = concurrent_runtime();
  // Checkpoint through the savepoint serialization layer unless the caller
  // supplied a store. The store only needs to outlive the (synchronous) run.
  SavepointStore store;
  comm::RecoveryOptions recovery = rt.options().recovery;
  recovery.enabled = true;
  if (!recovery.store) recovery.store = &store;
  rt.set_fault_options(rt.options().faults, recovery);
  return rt.run(steps);
}

void ModelDriver::step() {
  if (exec_mode_ == ExecMode::Concurrent) {
    concurrent_runtime().step();
    return;
  }
  comm::run_lockstep_step(program_, halo_, ranks_, comm_);
}

void ModelDriver::exchange_prognostics() {
  const auto fields_of = [this](const std::string& name) {
    std::vector<FieldD*> fields;
    fields.reserve(ranks_.size());
    for (auto& rd : ranks_) fields.push_back(&rd.catalog->at(name));
    return fields;
  };
  // Winds go as a rotated vector pair, the rest as scalars.
  {
    const std::vector<FieldD*> u = fields_of("u");
    const std::vector<FieldD*> v = fields_of("v");
    halo_.exchange_vector(u, v, comm_);
    halo_.fill_cube_corners(u, comm::CornerFill::XDir);
    halo_.fill_cube_corners(v, comm::CornerFill::YDir);
  }
  for (const auto& name : prognostics_) {
    if (name == "u" || name == "v") continue;
    const std::vector<FieldD*> fields = fields_of(name);
    halo_.exchange_scalar(fields, comm_);
    halo_.fill_cube_corners(fields, comm::CornerFill::XDir);
  }
}

}  // namespace cyclone::fv3
