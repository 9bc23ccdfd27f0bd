#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/elastic.hpp"
#include "comm/verify_distributed.hpp"

namespace cyclone::verify {

/// Sweep policy of check_elastic_agrees.
struct ElasticVerifyOptions {
  /// Executors to prove, by name (interp, tape, openmp, jit).
  std::vector<std::string> backends = {"interp", "openmp", "jit"};
  int seeds = 10;                 ///< independent data seeds per backend
  uint64_t data_seed = 0xE1A57;   ///< base the per-run seeds derive from
  int steps = 8;                  ///< program passes per run
  int initial_ranks = 24;         ///< static reference (and elastic start) roster
  int shrink_ranks = 6;           ///< shrink target of the scripted round-trip
  long shrink_at = 2;             ///< step of the scripted shrink
  long grow_at = 5;               ///< step of the scripted grow-back
  int grow_ranks = 0;             ///< grow target (0 = back to initial_ranks)
  bool include_kill_rejoin = true;
  uint64_t fault_seed = 0xC4A05;  ///< chaos seed base of the kill scenario
  double drop_rate = 0.05;        ///< message-drop rate kept live across resizes
  long crash_step = 3;            ///< step the planned rank death fires at
  int rejoin_after_steps = 2;     ///< degraded-roster steps before growing back
  double recv_timeout_seconds = 120.0;
};

/// Prove the elastic runtime invisible to the numerics: for every backend x
/// seed, run the static-membership lockstep reference at `initial_ranks`,
/// then (a) an elastic run with a scripted shrink -> grow round-trip and
/// (b) an elastic run where a planned rank death under an active message-
/// fault plan triggers evict-then-rejoin — and require the assembled global
/// owned cells of every field to match the reference at 0 ULP, the halo
/// buffer pools to balance after every resize, and the membership events to
/// actually have happened (>= 2 resizes / >= 1 death + rejoin).
EquivalenceReport check_elastic_agrees(const ir::Program& program, int n, int nk,
                                       int halo_width,
                                       const ElasticVerifyOptions& options = {});

}  // namespace cyclone::verify
