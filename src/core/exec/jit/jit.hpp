#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exec/jit/abi.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/exec/tape.hpp"

namespace cyclone::exec::jit {

/// All stencils of one ir::Program lowered to native kernels in a single
/// shared object (one codegen + one host-compiler invocation + one dlopen
/// per program, the granularity DaCe compiles SDFGs at). Building never
/// throws on toolchain problems: a program whose module cannot be produced
/// degrades to the tape engine per call, with one logged warning. Immutable
/// once built (run() keeps its per-launch tables per thread), so rank sides
/// running on a team may share one.
class JitProgram {
 public:
  using StencilList =
      std::vector<std::pair<std::string, std::shared_ptr<const CompiledStencil>>>;

  /// Lower, compile (or fetch from `cache`), and bind `cyk_<n>` symbols.
  /// `tag` keys the cache entry readably (usually the program name).
  static std::shared_ptr<JitProgram> build(const std::string& tag, const StencilList& stencils,
                                           KernelCache& cache = KernelCache::global());

  /// True when the native module is loaded and every stencil has a bound
  /// kernel; false means every run() falls back to the tape engine.
  [[nodiscard]] bool native() const { return module_ != nullptr; }

  /// Why build() fell back, for diagnostics ("" when native).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Execute one stencil launch through its native kernel. Slot and
  /// parameter resolution, bounds clipping, scratch sizing, and the
  /// runnability guards (I-contiguous storage, no aliased slot bindings)
  /// all happen here on the host; a launch that fails a guard runs through
  /// run_blocks on the same resolved bindings instead, preserving behavior.
  void run(const CompiledStencil& cs, FieldCatalog& catalog, const StencilArgs& args,
           const LaunchDomain& dom, const sched::Schedule& schedule,
           const RunOptions& run) const;

  /// Launches that took the tape-engine fallback path (guards or missing
  /// module) since construction, from any thread. Exposed for tests.
  [[nodiscard]] long fallbacks() const { return fallbacks_.load(); }

 private:
  std::shared_ptr<LoadedModule> module_;
  std::map<const CompiledStencil*, KernelFn> kernels_;
  std::string error_;
  mutable std::atomic<long> fallbacks_{0};
  mutable std::atomic<bool> warned_{false};
};

}  // namespace cyclone::exec::jit
