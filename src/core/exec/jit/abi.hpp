#pragma once

#include <cstdint>

namespace cyclone::exec::jit {

/// ABI version of the generated-kernel interface. Mixed into every cache
/// key, so a layout change here silently invalidates all cached modules
/// instead of loading kernels compiled against the old struct layout.
inline constexpr int kAbiVersion = 2;

/// Resolved storage of one slot, as seen by a generated kernel. Mirrors
/// exec::SlotBind with the i stride dropped: the host only dispatches to
/// native kernels when every slot is I-contiguous (stride_i == 1), which
/// the generator bakes into the inner loops.
struct CyJitSlot {
  double* origin;   ///< pointer at logical (0, 0, 0)
  long long sj;     ///< j stride in elements
  long long sk;     ///< k stride (0 = single-plane broadcast field)
  int koff;         ///< allocation level of logical k = 0
  int nk;           ///< allocated level count
};

/// Resolved apply bounds of one flattened statement (host-side clipping of
/// compute domain, write extent, launch extension, region restriction, and
/// the output slot's k allocation — everything the engine derives per
/// launch, so the kernel contains no bounds logic of its own).
struct CyJitBounds {
  int ilo, ihi;
  int jlo, jhi;
  int klo, khi;
};

/// Per-interval data for sequential (Forward/Backward) sweeps: the interval
/// k range and the union apply rectangle of its statements (the tile/band
/// decomposition domain).
struct CyJitIv {
  int k0, k1;
  int ilo, ihi;
  int jlo, jhi;
};

/// The one argument every generated kernel takes. Schedule knobs travel
/// here at run time rather than being baked into the generated code, so one
/// compiled kernel serves every (tile, k-map, thread count) configuration
/// the tuner sweeps.
struct CyJitArgs {
  const CyJitSlot* slots;     ///< per-slot storage, slot_names() order
  const double* params;       ///< scalar parameters, param_names() order
  const CyJitBounds* stmts;   ///< per-statement bounds, flat walk order
  const CyJitIv* intervals;   ///< per-interval data, flat walk order
  double* scratch;            ///< two-phase commit buffer (host-sized)
  int tile_j;                 ///< j band size; <= 0 derives one band/thread
  int k_as_map;               ///< schedule.k_as_map
  int num_threads;            ///< resolved team size (>= 1; 1 = serial path)
};

static_assert(sizeof(CyJitSlot) == 32, "generated kernels assume this layout");
static_assert(sizeof(CyJitBounds) == 24, "generated kernels assume this layout");
static_assert(sizeof(CyJitIv) == 24, "generated kernels assume this layout");

/// Generated kernel entry point: `extern "C" void cyk_<n>(const CyJitArgs*)`.
using KernelFn = void (*)(const CyJitArgs*);

}  // namespace cyclone::exec::jit
