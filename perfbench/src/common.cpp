// Tracer, statistics, prepared-state records, the copy-stencil roof, and the
// JIT metrics every workload reports.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/dsl/builder.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/ir/expand.hpp"
#include "core/ir/program.hpp"
#include "core/perf/benchjson.hpp"
#include "core/perf/model.hpp"

namespace perfbench {

using namespace cyclone;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int Tracer::begin(const std::string& name, int lane, Clock::time_point start) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lane >= static_cast<int>(open_.size())) open_.resize(static_cast<size_t>(lane) + 1);
  std::vector<int>& stack = open_[static_cast<size_t>(lane)];
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Rec{name, stack.empty() ? -1 : stack.back(), lane, us(start), -1.0});
  stack.push_back(id);
  return id;
}

void Tracer::end(int id, Clock::time_point stop) {
  std::lock_guard<std::mutex> lock(mu_);
  Rec& rec = spans_[static_cast<size_t>(id)];
  rec.end_us = us(stop);
  std::vector<int>& stack = open_[static_cast<size_t>(rec.lane)];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Rec& rec : spans_) {
    if (rec.parent >= 0 && rec.end_us >= 0) {
      child_us[static_cast<size_t>(rec.parent)] += rec.end_us - rec.start_us;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& rec = spans_[i];
    if (rec.end_us < 0) continue;
    SelfTime& row = by_name[rec.name];
    row.name = rec.name;
    ++row.count;
    row.total_s += (rec.end_us - rec.start_us) * 1e-6;
    row.self_s += (rec.end_us - rec.start_us - child_us[i]) * 1e-6;
  }
  std::vector<SelfTime> rows;
  for (auto& [_, row] : by_name) rows.push_back(row);
  std::sort(rows.begin(), rows.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.self_s > b.self_s; });
  return rows;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& rec = spans_[i];
    if (rec.end_us < 0) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":" << json_quote(rec.name)
       << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << rec.lane;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", rec.start_us,
                  rec.end_us - rec.start_us);
    os << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << rec.parent << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("failed writing trace file " + path);
}

// --- Prepared-state records -------------------------------------------------

void write_record(const std::string& path, const Record& rec) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    const char* sep = "";
    os << "{";
    for (const auto& [key, value] : rec) {
      os << sep << "\n  " << json_quote(key) << ": " << json_quote(value);
      sep = ",";
    }
    os << "\n}\n";
    if (!os) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) throw std::runtime_error("cannot rename " + tmp);
}

Record read_record(const std::string& path) {
  if (!std::ifstream(path)) {
    throw std::runtime_error("missing prepared state " + path +
                             " (run the benchmark through perfbench/run.py)");
  }
  const perf::JsonValue doc = perf::parse_json_file(path);
  Record rec;
  for (const auto& [key, value] : doc.members) {
    if (!value.is_string()) throw std::runtime_error(path + ": '" + key + "' is not a string");
    rec[key] = value.text;
  }
  return rec;
}

std::string prep_path(const Options& opt) {
  return opt.state_dir + "/prep/" + opt.workload + ".json";
}

void require_config(const Record& prep, const std::string& config) {
  const auto it = prep.find("config");
  if (it == prep.end() || it->second != config) {
    throw std::runtime_error("prepared state is for another configuration; prepare again");
  }
}

std::string join_hex(const std::vector<uint64_t>& values) {
  std::string out;
  char buf[24];
  for (uint64_t v : values) {
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    if (!out.empty()) out += ' ';
    out += buf;
  }
  return out;
}

std::vector<uint64_t> split_hex(const std::string& text) {
  std::istringstream in(text);
  std::vector<uint64_t> out;
  std::string word;
  while (in >> word) out.push_back(std::stoull(word, nullptr, 16));
  return out;
}

// --- Copy-stencil roof --------------------------------------------------------

namespace {

ir::Program copy_program(int threads) {
  dsl::StencilBuilder b("copy_stencil");
  auto in = b.field("in");
  auto out = b.field("out");
  b.parallel().full().assign(out, dsl::E(in));
  ir::Program prog("perfbench_copy");
  prog.append_state(ir::State{
      "copy", {ir::SNode::make_stencil("copy", b.build(), {}, sched::tuned_horizontal())}});
  exec::RunOptions run;
  run.backend = exec::ExecBackend::Jit;
  run.num_threads = threads;
  prog.set_run_options(run);
  return prog;
}

}  // namespace

void prime_copy_roof(int threads) { copy_program(threads).precompile(); }

CopyRoof measure_copy_roof(int threads, long llc_bytes, Tracer& tracer) {
  Span span(&tracer, "roof.copy");
  ir::Program prog = copy_program(threads);
  prog.precompile();
  // Each array at least 4x the LLC (64 MiB when the LLC is unknown), so the
  // copy streams from DRAM.
  constexpr int kLevels = 64;
  const double target = std::max(4.0 * static_cast<double>(llc_bytes), 64.0 * (1 << 20));
  const int n = static_cast<int>(std::ceil(std::sqrt(target / (8.0 * kLevels))));
  CopyRoof roof;
  std::vector<double> times;
  {
    FieldCatalog cat;
    cat.create("in", n, n, kLevels).fill(1.0);
    cat.create("out", n, n, kLevels).fill(0.0);
    roof.array_bytes = static_cast<long>(cat.at("in").shape().alloc_elems() * sizeof(double));
    exec::LaunchDomain dom;
    dom.ni = n;
    dom.nj = n;
    dom.nk = kLevels;
    dom.gni = n;
    dom.gnj = n;
    double bytes = 0;
    for (const auto& k : ir::expand_node(prog.states()[0].nodes[0], prog, dom, 1)) {
      bytes += perf::unique_bytes(k);
    }
    prog.execute_state(0, cat, dom);  // warm-up: first touch of the output pages
    for (int rep = 0; rep < 5; ++rep) {
      Span launch(&tracer, "roof.copy_launch");
      prog.execute_state(0, cat, dom);
      times.push_back(launch.stop());
    }
    roof.gbps = bytes / quantile(times, 0.5) / 1e9;
  }
  return roof;
}

void add_roof_metrics(RunResult& res, const CopyRoof& roof, const Context& ctx) {
  std::printf("copy roof: %.2f GB/s measured (JIT copy stencil, median of 5), arrays %.0f MiB "
              "each vs LLC %s\n",
              roof.gbps, static_cast<double>(roof.array_bytes) / (1 << 20), ctx.llc_text.c_str());
  res.context.emplace_back("roof_array_bytes", std::to_string(roof.array_bytes));
  res.add("roof.copy_gbps", roof.gbps, "GB/s");
}

// --- JIT metrics ------------------------------------------------------------

void add_jit_metrics(RunResult& res, const Record& prep, double precompile_s) {
  const exec::jit::CacheStats st = exec::jit::KernelCache::global().stats();
  const double cold_s = std::stod(prep.at("jit.compile_s"));
  std::printf("jit: precompile %.2f ms (warm), cold compile %.2f s (prepare step, %s compiles), "
              "this run: %ld compiles, %ld disk hits, %ld memory hits\n",
              1e3 * precompile_s, cold_s, prep.at("jit.cold_compiles").c_str(), st.compiles,
              st.disk_hits, st.mem_hits);
  res.add("jit.precompile_ms", 1e3 * precompile_s, "ms");
  res.add("jit.compile_s", cold_s, "s");
  res.add("jit.compiles", static_cast<double>(st.compiles), "count");
  res.add("jit.disk_hits", static_cast<double>(st.disk_hits), "count");
  res.add("jit.mem_hits", static_cast<double>(st.mem_hits), "count");
}

void flag_warm_compiles(RunResult& res) {
  const long compiles = exec::jit::KernelCache::global().stats().compiles;
  res.context.emplace_back("jit_compiles", std::to_string(compiles));
  if (compiles > 0) {
    res.notes.push_back("WARNING: " + std::to_string(compiles) +
                        " JIT compile(s) in a warm run: its times include host-compiler runs");
  } else {
    res.notes.push_back("jit: no host-compiler run in this warm run");
  }
}

void add_not_applicable(RunResult& res, const std::vector<Metric>& metrics,
                        const std::string& why) {
  std::string names;
  for (const Metric& m : metrics) {
    res.add(m.name, 0.0, m.unit);
    names += (names.empty() ? "" : ", ") + m.name;
  }
  res.notes.push_back("not applicable (" + why + "), reported as 0: " + names);
}

}  // namespace perfbench
