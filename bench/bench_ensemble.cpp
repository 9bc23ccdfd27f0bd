// bench_ensemble — member-steps/sec of the batched ensemble runtime vs N
// separate solo processes (the operational alternative: one OS process per
// ensemble member, each paying its own startup, program build and executor
// warm-up).
//
//   bench_ensemble [--threads N] [--backend NAME] [--members 4,30]
//                  [--steps N] [--npx N] [--json]
//   bench_ensemble --solo-child SEED INDEX STEPS NPX BACKEND THREADS
//
// The solo baseline re-executes this binary via /proc/self/exe in
// --solo-child mode, once per member, and times the whole wall from spawn to
// exit — that is what "run N solo forecasts" costs. The batched number times
// EnsembleRunner construction + init + run for the same roster, in-process.
// Both advance bitwise-identical members (tests/test_ensemble.cpp pins
// that), so the comparison is pure scheduling/amortization. Each is the
// median of repeated runs after one warm-up run, which also fills the JIT
// kernel cache, so the host compiler stays out of the timed runs.
//
// With --json, prints one complete BENCH_*.json snapshot (schema of
// perf/benchjson.hpp, validated by tests/test_perf.cpp) to stdout; provenance
// fields come from --git-sha / --generated.

#include <spawn.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ensemble/ensemble.hpp"
#include "ensemble/service.hpp"
#include "ensemble/verify_ensemble.hpp"

extern char** environ;

namespace {

using namespace cyclone;

constexpr uint64_t kBenchSeed = 0xBE4C5EEDull;

/// Child mode: integrate one solo member and exit. The measured unit of the
/// per-process baseline.
int run_solo_child(uint64_t seed, int index, int steps, int npx, const std::string& backend,
                   int threads) {
  exec::RunOptions run;
  run.num_threads = threads;
  if (!exec::parse_backend(backend.c_str(), run.backend)) return 2;
  const swe::SweConfig cfg = ensemble::standard_swe_config(npx, /*ntracers=*/2);
  const ensemble::MemberSpec spec{seed, index};
  auto model = ensemble::solo_member<swe::SweModel>(cfg, /*num_ranks=*/6, run, "hill", spec,
                                                    /*amplitude=*/1e-3);
  for (int s = 0; s < steps; ++s) model->step();
  // Fold a checksum into the exit path so the integration cannot be
  // dead-code-eliminated and a corrupted run fails loudly.
  const FieldD& h = model->state(0).catalog().at("h");
  return std::isfinite(h.data()[0]) ? 0 : 3;
}

void spawn_solo_members(int members, int steps, int npx, const std::string& backend,
                        int threads) {
  for (int m = 0; m < members; ++m) {
    std::vector<std::string> args = {"/proc/self/exe",
                                     "--solo-child",
                                     std::to_string(kBenchSeed),
                                     std::to_string(m),
                                     std::to_string(steps),
                                     std::to_string(npx),
                                     backend,
                                     std::to_string(threads)};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ);
    if (rc != 0) {
      std::fprintf(stderr, "posix_spawn failed: %s\n", std::strerror(rc));
      std::exit(2);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "solo child %d failed (status %d)\n", m, status);
      std::exit(2);
    }
  }
}

void run_batched(int members, int steps, int npx, const exec::RunOptions& run) {
  ensemble::EnsembleOptions opts;
  opts.members = ensemble::default_members(kBenchSeed, members);
  opts.run = run;
  ensemble::EnsembleRunner<swe::SweModel> runner(
      ensemble::standard_swe_config(npx, /*ntracers=*/2), std::move(opts));
  runner.init("hill");
  runner.run(steps);
}

std::vector<int> parse_member_counts(const char* csv) {
  std::vector<int> counts;
  for (const char* p = csv; *p != '\0';) {
    counts.push_back(std::atoi(p));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 8 && std::strcmp(argv[1], "--solo-child") == 0) {
    return run_solo_child(std::strtoull(argv[2], nullptr, 0), std::atoi(argv[3]),
                          std::atoi(argv[4]), std::atoi(argv[5]), argv[6], std::atoi(argv[7]));
  }

  std::vector<int> member_counts = {4, 30};
  int steps = 2;
  int npx = 12;
  bool json = false;
  std::string git_sha = "unreleased";
  std::string generated = "unknown";
  std::vector<const char*> positional;
  exec::RunOptions run = bench::parse_run_options(argc, argv, &positional);
  for (size_t a = 0; a < positional.size(); ++a) {
    const char* arg = positional[a];
    auto value = [&]() -> const char* {
      if (a + 1 >= positional.size()) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        std::exit(2);
      }
      return positional[++a];
    };
    if (std::strcmp(arg, "--members") == 0) {
      member_counts = parse_member_counts(value());
    } else if (std::strcmp(arg, "--steps") == 0) {
      steps = std::atoi(value());
    } else if (std::strcmp(arg, "--npx") == 0) {
      npx = std::atoi(value());
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--git-sha") == 0) {
      git_sha = value();
    } else if (std::strcmp(arg, "--generated") == 0) {
      generated = value();
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return 2;
    }
  }
  const char* backend = exec::backend_name(run.backend);
  const int threads = exec::resolved_num_threads(run);

  std::vector<std::string> records;
  if (!json) {
    bench::print_header("batched ensemble vs N solo processes (swe c" +
                                 std::to_string(npx) + ", " + backend + ", " +
                                 std::to_string(steps) + " steps)");
    std::printf("%8s %14s %14s %10s %18s\n", "members", "batched", "N processes", "speedup",
                "member-steps/sec");
  }
  for (const int members : member_counts) {
    const Timing batched =
        time_reps(bench::kReps, [&] { run_batched(members, steps, npx, run); });
    const Timing solo = time_reps(
        bench::kReps, [&] { spawn_solo_members(members, steps, npx, backend, threads); });
    const double member_steps = static_cast<double>(members) * steps;
    const std::string config =
        "swe_c" + std::to_string(npx) + "_m" + std::to_string(members);
    char extra[256];
    std::snprintf(extra, sizeof extra,
                  "\"members\":%d,\"steps\":%d,\"backend\":\"%s\",\"mode\":\"batched\","
                  "\"member_steps_per_sec\":%.3f,\"solo_member_steps_per_sec\":%.3f",
                  members, steps, backend, member_steps / batched.median,
                  member_steps / solo.median);
    records.push_back(perf::format_bench_record("ensemble_batched", config, threads, batched,
                                                solo.median / batched.median, extra));
    if (!json) {
      std::printf("%8d %14s %14s %9.2fx %18.1f\n", members,
                  str::human_time(batched.median).c_str(), str::human_time(solo.median).c_str(),
                  solo.median / batched.median, member_steps / batched.median);
      std::printf("%s\n", records.back().c_str());
    }
  }

  if (json) {
    bench::print_snapshot(
        "ensemble_batched",
        "Measured wall time of the batched ensemble runtime (EnsembleRunner, member-major "
        "arena, one in-process roster) vs launching one solo process per member via "
        "/proc/self/exe, each the median of repeated runs after a warm-up run. Same members "
        "bitwise — see tests/test_ensemble.cpp; speedup is solo/batched, and "
        "member_steps_per_sec is the serving throughput the forecast service schedules "
        "against.",
        generated, git_sha, argc, argv, "swe_c" + std::to_string(npx), records);
  }
  return 0;
}
