#pragma once

#include <string>
#include <vector>

#include "core/ir/program.hpp"

namespace cyclone::verify {

/// Knobs of the differential equivalence checker. The defaults implement the
/// paper's validation methodology: field-by-field comparison of a transformed
/// program against the reference interpreter on randomized-but-seeded data,
/// repeated over a sweep of launch domains including the degenerate edge
/// placements where region resolution and halo extension change behaviour.
struct VerifyOptions {
  /// Launch domains to sweep; empty selects default_domains().
  std::vector<exec::LaunchDomain> domains;
  /// Seed of the randomized field catalogs (logged in reports so any failure
  /// reproduces bit-exactly).
  uint64_t data_seed = 0xC0FFEEull;
  /// Independent random fills per domain.
  int trials = 1;
  /// Max tolerated per-field divergence in units in the last place. Exact IR
  /// rewrites (fusion, pruning, orchestration) reproduce bit-identical
  /// results on the interior; value-changing-but-semantics-preserving ones
  /// (pow strength reduction) differ by a few ulps, as the paper's
  /// field-by-field FORTRAN validation tolerates.
  double max_ulps = 64.0;
  /// Absolute slack: differences below this never fail (subnormal noise).
  double abs_floor = 1e-13;
  /// Number of interior cells to discard on each horizontal side before
  /// comparing; -1 derives it from the programs' read extents. Outside this
  /// ring the unfused reference legitimately reads stale intermediate halos
  /// that fusion recomputes.
  int interior_shrink = -1;
  /// Also compare fields marked transient in the program metadata. Off by
  /// default: transformations are free to demote transients to kernel-local
  /// temporaries, so their catalog values are unobservable by contract.
  bool include_transients = false;
};

/// Worst observed divergence of one output field under one domain/trial.
struct FieldDivergence {
  std::string field;
  double max_abs = 0.0;
  double max_ulps = 0.0;
  int at_i = 0, at_j = 0, at_k = 0;  ///< location of the worst point
  bool ok = true;
};

/// Result of one (domain, trial) comparison.
struct DomainResult {
  exec::LaunchDomain dom;
  uint64_t fill_seed = 0;
  std::vector<FieldDivergence> fields;
  bool ok = true;
  /// Non-empty when one of the two executions threw; that domain counts as
  /// non-equivalent (a transformation must not turn a running program into a
  /// crashing one).
  std::string error;
};

/// Aggregate verdict of check_equivalent.
struct EquivalenceReport {
  bool equivalent = true;
  uint64_t data_seed = 0;
  std::vector<DomainResult> domains;

  [[nodiscard]] double worst_ulps() const;
  /// First failing (domain, field) rendered for humans; empty when ok.
  [[nodiscard]] std::string first_failure() const;
  [[nodiscard]] std::string summary() const;
};

/// The default launch-domain sweep: a bulk interior domain, small domains,
/// single-column and single-plane degenerate shapes, and tile placements that
/// put the subdomain at edges/corners/interior of a larger global tile so
/// `horizontal(region[...])` statements resolve to full, partial, and empty
/// rectangles.
std::vector<exec::LaunchDomain> default_domains();

/// ULP distance between two doubles (0 for bit-identical values, inf across
/// NaN/sign boundaries).
double ulp_distance(double a, double b);

/// Bitwise comparison of two same-shaped fields over their full storage,
/// halos included. Used by the distributed runtime checks, where halo cells
/// are observable state (the exchange writes them) and the contract is exact
/// equality: ok iff every cell matches at 0 ULP.
FieldDivergence compare_fields_bitwise(const std::string& label, const FieldD& a,
                                       const FieldD& b);

/// Build a field catalog sized for `program` under `dom`: every catalog-level
/// field either program accesses is created with halos wide enough for the
/// union of both programs' read extents and filled with seeded uniform values
/// in [0.25, 2.0) (positive, so Div/Sqrt/Log-bearing programs stay finite).
FieldCatalog make_test_catalog(const ir::Program& a, const ir::Program& b,
                               const exec::LaunchDomain& dom, uint64_t seed);

/// Differential verification (translation validation): run `original` and
/// `transformed` through the reference interpreter on identical seeded
/// catalogs over the domain sweep and compare every externally observable
/// output field. This is the oracle check the paper performed field-by-field
/// against the FORTRAN reference, applied to our own transformation pipeline.
EquivalenceReport check_equivalent(const ir::Program& original, const ir::Program& transformed,
                                   const VerifyOptions& options = {});

/// Self-consistency check of the execution backends: the same program run
/// once on the default (OpenMP) backend and once through the reference
/// interpreter must agree. Catches codegen bugs rather than transformation
/// bugs (the GT4Py debug-backend methodology).
EquivalenceReport check_backends_agree(const ir::Program& program,
                                       const VerifyOptions& options = {});

/// Serial-vs-parallel check of the schedule-aware engine: run `program`
/// through the serial reference interpreter and through the compiled engine
/// under `run` (tile_i/tile_j >= 0 additionally override every stencil
/// node's schedule tiles), comparing at 0 ULP regardless of the caller's
/// tolerances — the engine's determinism contract promises bitwise identical
/// results for any thread count and tile shape.
EquivalenceReport check_parallel_agrees(const ir::Program& program, const exec::RunOptions& run,
                                        int tile_i = -1, int tile_j = -1,
                                        VerifyOptions options = {});

/// Differential check where the transformed side executes on the parallel
/// engine (serial reference oracle on the original side). This is the
/// harness the tile-boundary mutation tests drive: a defect must be caught
/// *by the parallel execution*, proving threading does not mask it.
EquivalenceReport check_equivalent_parallel(const ir::Program& original,
                                            const ir::Program& transformed,
                                            const exec::RunOptions& run, int tile_i = -1,
                                            int tile_j = -1, const VerifyOptions& options = {});

/// Full determinism sweep of the parallel engine: thread counts {1, 2, 7}
/// crossed with tile shapes (the nodes' own schedules, 8x3, 5x4), every
/// combination compared bitwise against the serial interpreter. Returns the
/// first failing configuration's report, or the last passing one.
EquivalenceReport check_parallel_determinism(const ir::Program& program,
                                             const VerifyOptions& options = {});

/// Copy of `program` with Callback nodes removed. Pipeline guards verify on
/// synthetic seeded catalogs where arbitrary host callbacks cannot safely run
/// (they may touch fields or files that don't exist there); stripping them
/// from *both* sides keeps the comparison symmetric while still validating
/// every stencil. Node ordering is otherwise preserved.
ir::Program without_callbacks(const ir::Program& program);

/// Families of injected defects for mutation testing.
enum class MutationClass {
  /// Semantic perturbations of a statement: constant bias, scaling, offset
  /// shift, dropped region restriction.
  Any,
  /// Tile-boundary off-by-ones, modeled as region restrictions that shift
  /// the apply origin or drop the remainder column/row at the domain's high
  /// edge — the defect shapes a buggy tile decomposition would produce.
  TileBoundary,
};

/// Deliberately miscompile `program`: pick a random stencil statement and
/// perturb its semantics (constant bias, offset shift, operator swap, or
/// dropped region restriction). Returns a human-readable description of the
/// injected defect, or empty if the program has no mutable statement. Used to
/// prove the checker actually catches miscompilations (mutation testing).
std::string mutate_program(ir::Program& program, uint64_t seed);

/// Same, restricted to one defect family.
std::string mutate_program(ir::Program& program, uint64_t seed, MutationClass cls);

/// JSON rendering of an equivalence report (same hand-rolled conventions as
/// ir::to_json) for the verify_pipeline tool.
std::string report_to_json(const EquivalenceReport& report);

}  // namespace cyclone::verify
