#pragma once

#include <string>
#include <vector>

namespace cyclone::exec {
class CompiledStencil;
}

namespace cyclone::exec::jit {

/// Lower a set of compiled stencils into one C++ translation unit exporting
/// `extern "C" void cyk_<n>(const CyJitArgs*)` per stencil, in input order.
/// The generated code replays the tape engine's execution structure exactly
/// — parallel maps with optional k maps, broadcast-write k serialization,
/// two-phase scratch commit for self-reading statements, column sweeps for
/// horizontally independent vertical solvers, plane-by-plane sweeps
/// otherwise — with each statement's postfix tape unrolled into a native
/// expression over I-contiguous row pointers.
///
/// Each kernel opens one OpenMP parallel region, forked only when some loop
/// exceeds 1024 points; its statements and sweeps are orphaned `omp for`
/// loops, and a barrier separates two of them only where the later one
/// reads a slot written, or writes a slot read or written, since the last
/// barrier.
///
/// The TU is self-contained (no #include) to keep host-compiler invocations
/// fast, and all schedule knobs (tile width, k-map, thread count) arrive at
/// run time through CyJitArgs, so one compilation serves every schedule.
std::string emit_translation_unit(const std::vector<const CompiledStencil*>& stencils);

/// Number of flattened statement / interval entries the generated kernel of
/// `cs` expects in CyJitArgs::stmts / CyJitArgs::intervals. The host walks
/// blocks in the same order as the generator; these are exposed so it can
/// size its tables (and tests can cross-check the walk).
int flat_stmt_count(const CompiledStencil& cs);
int flat_interval_count(const CompiledStencil& cs);

}  // namespace cyclone::exec::jit
