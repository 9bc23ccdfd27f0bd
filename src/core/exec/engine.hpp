#pragma once

#include <vector>

#include "core/exec/tape.hpp"
#include "core/sched/schedule.hpp"

namespace cyclone::exec {

/// One horizontal tile of an apply rectangle. Tiles are the engine's unit of
/// work distribution: each tile is owned by exactly one thread, so there are
/// no cross-thread writes and no reductions (the determinism contract).
struct Tile {
  Range i, j;
};

/// Decompose a rectangle into tiles of at most `tile_i` x `tile_j` cells.
/// A size of 0 (or negative) disables tiling in that dimension. Remainder
/// tiles at the high edge are clipped — never emitted with negative size —
/// and rectangles with negative low bounds (DomainExt extensions) tile from
/// their actual low corner, not from zero.
std::vector<Tile> decompose_tiles(const Rect& rect, int tile_i, int tile_j);

/// Thread count a run resolves to: 1 on the serial Tape backend and inside
/// an active parallel region (a launch of a rank side that runs on the
/// lockstep compute team runs on a team of one); else the explicit request
/// when given, else the OpenMP runtime default (1 without OpenMP).
int resolved_num_threads(const RunOptions& run);

/// Apply rectangle of one compiled statement under a launch: compute domain
/// extended by the statement's write extent and the launch extension, then
/// clipped by the statement's region restriction (if any). Shared with the
/// JIT backend, which resolves every statement's bounds host-side before
/// handing them to the generated kernel.
Rect stmt_apply_rect(const CStmt& stmt, const LaunchDomain& dom);

/// Evaluate one compiled statement's tape at point i given per-plane hoisted
/// load pointers and their i strides.
double run_tape(const CStmt& stmt, const double* const* lptr, const ptrdiff_t* lsi,
                const double* params, int i);

/// Execute a compiled stencil's blocks over the launch domain with resolved
/// slots and parameters, honoring the node schedule (tiling, k map-vs-loop)
/// under the given run options. This is the multithreaded tape executor:
/// Parallel blocks distribute (tile, k) work units across the OpenMP team
/// with a barrier per statement; Forward/Backward intervals run column
/// sweeps (k sequential per thread, horizontal tiles parallel) when the
/// interval's statements are horizontally independent, and fall back to
/// per-plane parallelism otherwise. Results are bitwise identical to the
/// serial executor for any thread count and tile shape.
void run_blocks(const std::vector<CBlock>& blocks, const LaunchDomain& dom,
                const std::vector<SlotBind>& slots, const std::vector<double>& params,
                const sched::Schedule& schedule, const RunOptions& run);

}  // namespace cyclone::exec
