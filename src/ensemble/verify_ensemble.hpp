#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ensemble/ensemble.hpp"

namespace cyclone::ensemble {

/// Build a solo (non-arena, single-model) replica of one ensemble member:
/// same config, schedules, run options, initial condition and perturbation
/// stream — the reference the batched member is diffed against. Runs through
/// the default lockstep scheduler.
template <class Model>
std::unique_ptr<Model> solo_member(const typename ModelTraits<Model>::Config& config,
                                   int num_ranks, const exec::RunOptions& run,
                                   const std::string& ic, const MemberSpec& spec,
                                   double amplitude);

/// One batched-vs-solo sweep configuration.
struct EnsembleVerifyOptions {
  std::string ic;  ///< corpus IC name for the core under test
  int steps = 2;
  std::vector<int> member_counts = {1, 4};
  std::vector<exec::ExecBackend> backends = {exec::ExecBackend::Interpreter,
                                             exec::ExecBackend::OpenMP, exec::ExecBackend::Jit};
  std::vector<uint64_t> seeds = {0x5EEDull};
  int num_ranks = 6;
  double amplitude = 1e-3;
  int num_threads = 2;  ///< OpenMP team size for threaded backends
  EnsembleOptions::Scheduler scheduler = EnsembleOptions::Scheduler::Batched;
};

struct EnsembleVerifyReport {
  long comparisons = 0;  ///< (backend, count, seed, member, rank, field) diffs
  long mismatches = 0;
  std::vector<std::string> failures;  ///< one line per mismatching field

  [[nodiscard]] bool ok() const { return comparisons > 0 && mismatches == 0; }
};

/// Run the sweep: for every backend x member count x seed, advance a batched
/// ensemble and, independently, a solo replica of each member, then demand
/// every prognostic field of every rank agree bit for bit
/// (verify::compare_ranks_bitwise).
template <class Model>
EnsembleVerifyReport verify_batched_vs_solo(const typename ModelTraits<Model>::Config& config,
                                            const EnsembleVerifyOptions& options);

}  // namespace cyclone::ensemble
