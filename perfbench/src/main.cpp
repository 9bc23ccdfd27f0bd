// End-to-end benchmark of the cyclone dycore and forecast service. Runs one
// workload for a wall-clock budget, checks every output bit for bit, and
// prints the result as one JSON line (the last line of standard output).
// perfbench/run.py builds this binary, prepares its state and drives it; see
// perfbench/README.md for the workloads and metrics.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/exec/jit/compiler.hpp"

extern char** environ;

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "cyclone_perfbench: %s\n"
               "usage: cyclone_perfbench --workload NAME --state-dir DIR [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "           [--threads N] [--corrupt] [--llc-bytes B] "
               "[--llc-text TEXT] [--git-sha SHA]\n"
               "       cyclone_perfbench --prepare --workload NAME --state-dir DIR\n"
               "workloads: dycore_c48 dycore_c24r24 forecast_mix\n",
               problem.c_str());
  std::exit(2);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string result_line(const RunResult& res) {
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    out += (i ? ", " : "") + json_quote(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_quote(m.unit) + "}";
  }
  return out + "}}";
}

void print_self_times(const Tracer& tracer) {
  std::printf("\nspan self time (%zu spans):\n  %-28s %9s %12s %12s\n", tracer.size(), "span",
              "count", "total ms", "self ms");
  const auto rows = tracer.self_times();
  for (size_t i = 0; i < rows.size() && i < 30; ++i) {
    std::printf("  %-28s %9ld %12.3f %12.3f\n", rows[i].name.c_str(), rows[i].count,
                1e3 * rows[i].total_s, 1e3 * rows[i].self_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Context ctx;
  bool prepare = false;
  ctx.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  opt.threads = std::clamp(ctx.nproc - 1, 1, 3);
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      auto value = [&]() -> std::string {
        if (a + 1 >= argc) usage("missing value for " + arg);
        return argv[++a];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--threads") {
        opt.threads = std::stoi(value());
      } else if (arg == "--state-dir") {
        opt.state_dir = value();
      } else if (arg == "--llc-bytes") {
        ctx.llc_bytes = std::stol(value());
      } else if (arg == "--llc-text") {
        ctx.llc_text = value();
      } else if (arg == "--git-sha") {
        ctx.git_sha = value();
      } else if (arg == "--corrupt") {
        opt.corrupt = true;
      } else if (arg == "--prepare") {
        prepare = true;
      } else {
        usage("unknown argument " + arg);
      }
    }
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (opt.workload != "dycore_c48" && opt.workload != "dycore_c24r24" &&
      opt.workload != "forecast_mix") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.state_dir.empty()) usage("--state-dir is required");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds must be in (0, 600]");
  if (opt.threads < 1 || opt.threads > ctx.nproc) {
    usage("thread budget " + std::to_string(opt.threads) + " outside 1.." +
          std::to_string(ctx.nproc) + " (nproc): refusing to oversubscribe");
  }
  // Each workload keeps its own JIT cache, primed by --prepare; it must be
  // chosen before the first kernel-cache use.
  const std::string jit_dir = opt.state_dir + "/jit/" + opt.workload;
  setenv("CYCLONE_JIT_CACHE_DIR", jit_dir.c_str(), 1);

  try {
    if (prepare) {
      if (opt.workload == "forecast_mix") {
        prepare_forecast(opt);
      } else {
        prepare_dycore(opt);
      }
      return 0;
    }

    std::string omp_env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "OMP_", 4) == 0 || std::strncmp(*e, "GOMP_", 5) == 0) {
        omp_env += (omp_env.empty() ? "" : " ") + std::string(*e);
      }
    }
    if (omp_env.empty()) omp_env = "(none set)";
    const std::string toolchain = cyclone::exec::jit::toolchain_fingerprint();
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::printf("context: nproc=%d threads=%d (JIT backend, lockstep ranks), LLC %s (%ld B)\n",
                ctx.nproc, opt.threads, ctx.llc_text.c_str(), ctx.llc_bytes);
    std::printf("context: OMP env %s; git %s\ncontext: toolchain %s\ncontext: JIT cache %s\n",
                omp_env.c_str(), ctx.git_sha.c_str(), toolchain.c_str(), jit_dir.c_str());

    Tracer tracer(opt.trace);
    RunResult res = opt.workload == "forecast_mix" ? run_forecast(opt, ctx, tracer)
                                                    : run_dycore(opt, ctx, tracer);
    flag_warm_compiles(res);
    res.context.insert(res.context.begin(),
                       {{"workload", opt.workload},
                        {"seed", std::to_string(opt.seed)},
                        {"trace", opt.trace ? "1" : "0"},
                        {"nproc", std::to_string(ctx.nproc)},
                        {"threads", std::to_string(opt.threads)},
                        {"llc", ctx.llc_text},
                        {"llc_bytes", std::to_string(ctx.llc_bytes)},
                        {"toolchain", toolchain},
                        {"omp_env", omp_env},
                        {"git_sha", ctx.git_sha}});

    const std::string tag = opt.workload + "-s" + std::to_string(opt.seed);
    if (opt.trace) {
      const std::string path = opt.state_dir + "/out/trace-" + tag + ".json";
      tracer.write_chrome_json(path);
      print_self_times(tracer);
      std::printf("Chrome trace (%zu spans) written to %s\n", tracer.size(), path.c_str());
    }

    std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : res.metrics) {
      std::printf("%-34s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("operations: %ld attempted, %ld failed, error_rate %.6g\n", res.attempted,
                res.failed,
                res.attempted ? static_cast<double>(res.failed) / res.attempted : 0.0);
    for (const std::string& note : res.notes) std::printf("note: %s\n", note.c_str());

    const std::string line = result_line(res);
    {
      std::string context = "{";
      for (size_t i = 0; i < res.context.size(); ++i) {
        context += (i ? ", " : "") + json_quote(res.context[i].first) + ": " +
                   json_quote(res.context[i].second);
      }
      std::ofstream out(opt.state_dir + "/out/result-" + tag + "-t" + (opt.trace ? "1" : "0") +
                        ".json");
      out << "{\"context\": " << context << "}, \"result\": " << line << "}\n";
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cyclone_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
