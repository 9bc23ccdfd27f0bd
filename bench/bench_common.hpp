#pragma once

// Shared helpers for the reproduction benches. Each bench binary regenerates
// one table or figure of the paper (see DESIGN.md experiment index and
// EXPERIMENTS.md for the recorded outcomes).

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/exec/engine.hpp"
#include "core/exec/jit/compiler.hpp"
#include "core/ir/expand.hpp"
#include "core/perf/benchjson.hpp"
#include "core/perf/model.hpp"
#include "core/perf/report.hpp"
#include "core/tune/tuner.hpp"
#include "core/util/strings.hpp"
#include "core/util/timer.hpp"
#include "fv3/driver.hpp"
#include "fv3/dyn_core.hpp"
#include "fv3/init/baroclinic.hpp"

namespace cyclone::bench {

/// The paper's target configuration: 192x192 horizontal points per compute
/// node, 80 vertical levels (Sec. VII).
inline fv3::FvConfig paper_config(int npx = 192, int npz = 80) {
  fv3::FvConfig cfg;
  cfg.npx = npx;
  cfg.npz = npz;
  cfg.k_split = 2;
  cfg.n_split = 6;
  cfg.ntracers = 4;
  cfg.dt = 225.0;
  return cfg;
}

/// Launch domain covering a whole tile of `npx` cells (the 6-rank setup).
inline exec::LaunchDomain tile_domain(int npx, int npz) {
  exec::LaunchDomain dom;
  dom.ni = npx;
  dom.nj = npx;
  dom.nk = npz;
  dom.gni = npx;
  dom.gnj = npx;
  return dom;
}

/// Parse the shared `--threads N` and `--backend NAME` bench flags; every
/// other argument is appended to `positional` in order.
inline exec::RunOptions parse_run_options(int argc, char** argv,
                                          std::vector<const char*>* positional = nullptr) {
  exec::RunOptions run;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      run.num_threads = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--backend") == 0 && a + 1 < argc) {
      const char* name = argv[++a];
      if (!exec::parse_backend(name, run.backend)) {
        std::fprintf(stderr, "unknown backend '%s' (interp|tape|openmp|jit)\n", name);
        std::exit(2);
      }
    } else if (positional != nullptr) {
      positional->push_back(argv[a]);
    }
  }
  return run;
}

/// Channel recv timeout for the distributed bench sections. Overridable via
/// CYCLONE_RECV_TIMEOUT (seconds) so loaded CI machines can widen it — or
/// shrink it to fail fast with the pending-mailbox diagnostic when a bench
/// wedges.
inline double recv_timeout_seconds(double fallback = 120.0) {
  const char* env = std::getenv("CYCLONE_RECV_TIMEOUT");
  if (env == nullptr || *env == '\0') return fallback;
  const double v = std::atof(env);
  return v > 0 ? v : fallback;
}

/// Timed repetitions of every measured bench row, after one untimed
/// warm-up call (see time_reps in core/util/timer.hpp).
inline constexpr int kReps = 5;

/// One machine-readable record per measurement. Every record carries the
/// engine thread count so scaling sweeps can be joined across bench runs.
/// `extra` is an optional pre-rendered JSON fragment ("\"key\":1,...")
/// appended to the record — the fault-tolerance rows use it for the
/// reliability and recovery counters.
inline void emit_json_record(const char* bench, const std::string& config, int threads,
                             const Timing& timing, double speedup,
                             const std::string& extra = {}) {
  // Shared formatter (perf/benchjson.hpp): non-finite values render as null
  // instead of printf's "inf"/"nan", which is not JSON — the schema tests in
  // tests/test_perf.cpp then name the rotten field instead of a parse error.
  std::printf("%s\n",
              perf::format_bench_record(bench, config, threads, timing, speedup, extra).c_str());
}

/// Print one complete BENCH_*.json snapshot (schema of perf/benchjson.hpp,
/// validated by tests/test_perf.cpp): provenance, this machine, and one
/// record per line. The `command` field is the argv that produced it.
inline void print_snapshot(const std::string& bench, const std::string& description,
                           const std::string& generated, const std::string& git_sha,
                           int argc, char** argv, const std::string& config,
                           const std::vector<std::string>& records) {
  std::string command = std::filesystem::path(argv[0]).filename().string();
  for (int a = 1; a < argc; ++a) {
    command += ' ';
    command += argv[a];
  }
  utsname uts{};
  uname(&uts);
  std::printf("{\n  \"bench\": \"%s\",\n  \"description\": \"%s\",\n", bench.c_str(),
              description.c_str());
  std::printf("  \"generated\": \"%s\",\n  \"git_sha\": \"%s\",\n  \"command\": \"%s\",\n",
              generated.c_str(), git_sha.c_str(), command.c_str());
  std::printf(
      "  \"machine\": {\n    \"os\": \"%s %s %s\",\n    \"cpus\": %u,\n"
      "    \"toolchain\": \"%s\"\n  },\n",
      uts.sysname, uts.release, uts.machine, std::thread::hardware_concurrency(),
      exec::jit::toolchain_fingerprint().c_str());
  std::printf("  \"config\": \"%s\",\n  \"records\": [\n", config.c_str());
  for (size_t i = 0; i < records.size(); ++i) {
    std::printf("    %s%s\n", records[i].c_str(), i + 1 < records.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

inline void print_rule(int width = 96) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

/// Modeled GPU time of a node list at a domain.
inline double model_nodes_gpu(const std::vector<ir::SNode>& nodes, const ir::Program& meta_src,
                              const exec::LaunchDomain& dom, const perf::MachineSpec& machine) {
  std::vector<ir::KernelDesc> kernels;
  for (const auto& node : nodes) {
    auto ks = ir::expand_node(node, meta_src, dom, 1);
    kernels.insert(kernels.end(), ks.begin(), ks.end());
  }
  return perf::model_program(kernels, machine);
}

/// Modeled CPU (k-blocked FORTRAN schedule) time of a node list.
inline double model_nodes_cpu(const std::vector<ir::SNode>& nodes, const ir::Program& meta_src,
                              const exec::LaunchDomain& dom, const perf::MachineSpec& machine) {
  std::vector<ir::KernelDesc> kernels;
  for (const auto& node : nodes) {
    auto ks = ir::expand_node(node, meta_src, dom, 1);
    kernels.insert(kernels.end(), ks.begin(), ks.end());
  }
  return perf::model_module_cpu(kernels, machine);
}

}  // namespace cyclone::bench
