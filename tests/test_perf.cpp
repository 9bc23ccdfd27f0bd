#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "core/dsl/builder.hpp"
#include "core/ir/expand.hpp"
#include "core/perf/benchjson.hpp"
#include "core/perf/model.hpp"
#include "core/perf/report.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "core/util/timer.hpp"

namespace cyclone::perf {
namespace {

using dsl::E;
using dsl::StencilBuilder;

/// copy stencil: 1 read + 1 write — the Sec. VIII-A bandwidth probe.
ir::SNode copy_node() {
  StencilBuilder b("copy");
  auto in = b.field("in");
  auto out = b.field("out");
  b.parallel().full().assign(out, E(in));
  return ir::SNode::make_stencil("copy", b.build(), {}, sched::tuned_horizontal());
}

ir::SNode star5_node() {
  StencilBuilder b("star5");
  auto in = b.field("in");
  auto out = b.field("out");
  b.parallel().full().assign(out,
                             in(-1, 0) + in(1, 0) + in(0, -1) + in(0, 1) - 4.0 * E(in));
  return ir::SNode::make_stencil("star5", b.build(), {}, sched::tuned_horizontal());
}

std::vector<ir::KernelDesc> expand(const ir::SNode& node, const exec::LaunchDomain& dom) {
  ir::Program p;
  return ir::expand_node(node, p, dom, 1);
}

TEST(Machine, SpecsMatchPaperPeaks) {
  EXPECT_NEAR(p100().dram_bw / 1e9, 525.9, 5.0);   // 489.83 GiB/s in B/s
  EXPECT_NEAR(haswell().dram_bw / 1e9, 44.0, 1.0);  // 40.99 GiB/s in B/s
  EXPECT_NEAR(a100().dram_bw / p100().dram_bw, 2.83, 0.01);
  EXPECT_TRUE(p100().is_gpu);
  EXPECT_FALSE(haswell().is_gpu);
}

TEST(Machine, BandwidthRatioBoundsSpeedup) {
  // The paper's expected max speedup for memory-bound code: 11.45x.
  EXPECT_NEAR(p100().dram_bw / haswell().dram_bw, 11.95, 0.5);
}

TEST(Machine, BwEfficiencyMonotonic) {
  const MachineSpec m = p100();
  EXPECT_LT(m.bw_efficiency(1000), m.bw_efficiency(100000));
  EXPECT_LT(m.bw_efficiency(1e6), 1.0);
  EXPECT_GT(m.bw_efficiency(1e6), 0.95);
  EXPECT_EQ(haswell().bw_efficiency(1), 1.0);  // CPUs assumed saturated
}

TEST(Machine, ThreadScaledBandwidth) {
  const MachineSpec m = haswell();
  // All cores (the default) draw the full socket bandwidth.
  EXPECT_DOUBLE_EQ(m.effective_bw(), m.dram_bw);
  EXPECT_DOUBLE_EQ(m.with_threads(1).effective_bw(), m.core_bw);
  EXPECT_DOUBLE_EQ(m.with_threads(2).effective_bw(), 2.0 * m.core_bw);
  // Past the memory-controller knee the socket caps the team.
  EXPECT_DOUBLE_EQ(m.with_threads(8).effective_bw(), m.dram_bw);
  double prev = 0;
  for (int t = 1; t <= m.cores; ++t) {
    const double bw = m.with_threads(t).effective_bw();
    EXPECT_GE(bw, prev);
    EXPECT_LE(bw, m.dram_bw);
    prev = bw;
  }
  // GPU specs keep their defaults (cores=1, core_bw=0): no thread scaling.
  EXPECT_DOUBLE_EQ(p100().effective_bw(), p100().dram_bw);
  EXPECT_DOUBLE_EQ(p100().with_threads(4).effective_bw(), p100().dram_bw);
}

TEST(Machine, ThreadScaledFlops) {
  const MachineSpec m = haswell();
  EXPECT_DOUBLE_EQ(m.effective_flops(), m.flop_peak);
  EXPECT_DOUBLE_EQ(m.with_threads(6).effective_flops(), m.flop_peak * 0.5);
  // Requests beyond the core count clamp to the socket.
  EXPECT_DOUBLE_EQ(m.with_threads(4 * m.cores).effective_flops(), m.flop_peak);
  EXPECT_DOUBLE_EQ(p100().effective_flops(), p100().flop_peak);
}

TEST(Model, CpuTimeShrinksWithThreadsUntilSaturation) {
  const auto kernels = expand(copy_node(), exec::LaunchDomain{256, 256, 64});
  const double t1 = model_module_cpu(kernels, haswell().with_threads(1));
  const double t2 = model_module_cpu(kernels, haswell().with_threads(2));
  const double t4 = model_module_cpu(kernels, haswell().with_threads(4));
  const double t12 = model_module_cpu(kernels, haswell().with_threads(12));
  EXPECT_GT(t1, t2);
  EXPECT_GT(t2, t4);
  // haswell() saturates the socket at ~4 threads: no further gain.
  EXPECT_NEAR(t4, t12, t4 * 0.05);
  // Speedup at the knee is meaningful (close to the 4x bandwidth ratio).
  EXPECT_GT(t1 / t4, 2.0);
}

TEST(Model, CopyStencilNearPeak) {
  // A large copy stencil must achieve close to peak bandwidth (the paper
  // verifies GT4Py+DaCe reach 489.83 of 501.1 GB/s).
  const auto kernels = expand(copy_node(), exec::LaunchDomain{192, 192, 80});
  ASSERT_EQ(kernels.size(), 1u);
  const KernelTime t = model_kernel(kernels[0], p100());
  EXPECT_GT(t.utilization(), 0.90);
}

TEST(Model, UniqueVsAccessBytes) {
  const auto kernels = expand(star5_node(), exec::LaunchDomain{128, 128, 80});
  ASSERT_EQ(kernels.size(), 1u);
  const double uniq = unique_bytes(kernels[0]);
  const double acc = access_bytes(kernels[0], p100());
  // 5 read sites: unique counts one read + one write; access adds the
  // neighbor-miss fraction for the 4 extra sites.
  const double elems = 128.0 * 128 * 80 * 8;
  EXPECT_NEAR(uniq, 2 * elems, 1e-6);
  EXPECT_NEAR(acc, elems * (1 + 0.14 * 4) + elems, 1e-6);
  EXPECT_GT(acc, uniq);
}

TEST(Model, SmallGridUnderutilizesGpu) {
  const auto small = expand(copy_node(), exec::LaunchDomain{32, 32, 1});
  const auto large = expand(copy_node(), exec::LaunchDomain{512, 512, 80});
  const KernelTime ts = model_kernel(small[0], p100());
  const KernelTime tl = model_kernel(large[0], p100());
  EXPECT_LT(ts.utilization(), tl.utilization());
}

TEST(Model, FlopBoundKernelBelowMemPeak) {
  // A pow-heavy kernel is compute-bound: utilization well below 1, and
  // strength reduction (fewer flops) must raise it — the Smagorinsky story.
  StencilBuilder b("powheavy");
  auto x = b.field("x");
  auto o = b.field("o");
  b.parallel().full().assign(
      o, pow(pow(E(x), 2.0) + pow(E(x), 2.0), 0.5) + pow(E(x), 3.0) + pow(E(x), 4.0));
  ir::SNode node = ir::SNode::make_stencil("pw", b.build(), {}, sched::tuned_horizontal());
  const auto kernels = expand(node, exec::LaunchDomain{192, 192, 80});
  const KernelTime t = model_kernel(kernels[0], p100());
  EXPECT_LT(t.utilization(), 0.5);
}

TEST(Model, LaunchOverheadDominatesTinyKernels) {
  const auto kernels = expand(copy_node(), exec::LaunchDomain{4, 4, 1});
  const KernelTime t = model_kernel(kernels[0], p100());
  EXPECT_GT(t.simulated, p100().launch_overhead);
  EXPECT_LT(t.utilization(), 0.05);
}

TEST(Model, ProgramTimeSumsInvocations) {
  auto kernels = expand(copy_node(), exec::LaunchDomain{64, 64, 8});
  const double once = model_program(kernels, p100());
  kernels[0].invocations = 10;
  EXPECT_NEAR(model_program(kernels, p100()), 10 * once, 1e-12);
}

TEST(Model, CpuCacheFallOff) {
  // The FORTRAN-style CPU model: time grows faster than the domain once the
  // per-plane working set overflows the cache (Table II trend). Use a spec
  // with a small cache so the sweep crosses the capacity edge.
  MachineSpec cpu = haswell();
  cpu.cache_bytes = 0.5e6;
  cpu.launch_overhead = 0;
  auto time_at = [&](int n) {
    // A module with several kernels over the same fields (inter-kernel
    // reuse is what the cache buys).
    std::vector<ir::KernelDesc> kernels;
    for (int rep = 0; rep < 6; ++rep) {
      auto ks = expand(star5_node(), exec::LaunchDomain{n, n, 80});
      kernels.insert(kernels.end(), ks.begin(), ks.end());
    }
    return model_module_cpu(kernels, cpu);
  };
  const double t128 = time_at(128);
  const double t256 = time_at(256);
  const double t512 = time_at(512);
  EXPECT_GT(t256 / t128, 4.2);  // superlinear across the cache edge
  EXPECT_GT(t512 / t256, 4.0);
}

TEST(Model, CpuCachedRegimeNearIdealScaling) {
  auto time_at = [&](int n) {
    auto ks = expand(star5_node(), exec::LaunchDomain{n, n, 4});
    return model_module_cpu(ks, haswell());
  };
  // Tiny planes fit in cache: scaling stays close to the grid-point factor.
  const double r = time_at(64) / time_at(32);
  EXPECT_GT(r, 3.0);
  EXPECT_LT(r, 5.5);
}

TEST(Model, GpuBeatsCpuOnLargeDomains) {
  const auto kernels = expand(star5_node(), exec::LaunchDomain{384, 384, 80});
  const double gpu = model_program(kernels, p100());
  const double cpu = model_module_cpu(kernels, haswell());
  EXPECT_GT(cpu / gpu, 3.0);
  EXPECT_LT(cpu / gpu, 13.0);  // bounded by the bandwidth ratio + miss model
}

TEST(Model, A100FasterThanP100) {
  const auto kernels = expand(star5_node(), exec::LaunchDomain{192, 192, 80});
  const double tp = model_program(kernels, p100());
  const double ta = model_program(kernels, a100());
  EXPECT_GT(tp / ta, 1.8);
  EXPECT_LT(tp / ta, 2.9);
}

TEST(Report, GroupsAndRanks) {
  auto k1 = expand(copy_node(), exec::LaunchDomain{192, 192, 80});
  auto k2 = expand(star5_node(), exec::LaunchDomain{192, 192, 80});
  k1[0].invocations = 3;
  std::vector<ir::KernelDesc> all;
  all.push_back(k1[0]);
  all.push_back(k2[0]);
  all.push_back(k1[0]);  // same label appears twice -> grouped

  const auto report = bandwidth_report(all, p100());
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].label, "copy#0");  // 6 launches outweigh one star5
  EXPECT_EQ(report[0].launches, 6);
  EXPECT_GT(report[0].peak_fraction, report[1].peak_fraction);

  const std::string text = format_report(report);
  EXPECT_NE(text.find("copy#0"), std::string::npos);
  EXPECT_NE(text.find("%"), std::string::npos);
}

TEST(Report, RespectsMaxRows) {
  std::vector<ir::KernelDesc> all;
  for (int i = 0; i < 30; ++i) {
    auto ks = expand(copy_node(), exec::LaunchDomain{16, 16, 2});
    ks[0].label = str::numbered("k", i);
    all.push_back(ks[0]);
  }
  const auto report = bandwidth_report(all, p100());
  EXPECT_EQ(report.size(), 30u);
  const std::string text = format_report(report, 5);
  // Header + 5 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
}

}  // namespace
}  // namespace cyclone::perf

namespace cyclone::perf {
namespace {

TEST(Report, CsvExport) {
  std::vector<KernelReport> rows(2);
  rows[0].label = "a#0";
  rows[0].launches = 3;
  rows[0].total_runtime = 1.5e-3;
  rows[0].worst_kernel_time = 6e-4;
  rows[0].peak_fraction = 0.75;
  rows[1].label = "b#1";
  const std::string csv = report_to_csv(rows);
  EXPECT_NE(csv.find("kernel,launches,total_seconds"), std::string::npos);
  EXPECT_NE(csv.find("a#0,3,0.0015,0.0006,0.750000"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

// --- Bench JSON schema ------------------------------------------------------

TEST(BenchJson, ParsesRecordsAndFindsKeys) {
  const JsonValue v = parse_json(
      R"({"bench":"x","n":-1.5e3,"flag":true,"none":null,"list":[1,2],"nested":{"k":"v"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("bench")->text, "x");
  EXPECT_EQ(v.find("n")->number, -1500.0);
  EXPECT_TRUE(v.find("flag")->boolean);
  EXPECT_EQ(v.find("none")->kind, JsonValue::Kind::Null);
  ASSERT_EQ(v.find("list")->items.size(), 2u);
  EXPECT_EQ(v.find("nested")->find("k")->text, "v");
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(BenchJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), Error);                          // truncation
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), Error);         // trailing garbage
  EXPECT_THROW(parse_json("{\"a\":inf}"), Error);                // printf rot
  EXPECT_THROW(parse_json("{\"a\":nan}"), Error);
  EXPECT_THROW(parse_json("{\"a\":1e999}"), Error);              // overflows to inf
  EXPECT_THROW(parse_json("{\"a\":1,\"a\":2}"), Error);          // duplicate key
  EXPECT_THROW(parse_json("{\"a\":\"unterminated}"), Error);
}

TEST(BenchJson, DecodesUnicodeEscapesToUtf8) {
  // BMP code points: 2- and 3-byte UTF-8.
  EXPECT_EQ(parse_json(R"({"s":"caf\u00e9"})").find("s")->text, "caf\xc3\xa9");
  EXPECT_EQ(parse_json(R"({"s":"\u2603"})").find("s")->text, "\xe2\x98\x83");
  // Mixed-case hex and ASCII escapes alongside.
  EXPECT_EQ(parse_json(R"({"s":"\u00E9\n"})").find("s")->text, "\xc3\xa9\n");
  // Surrogate pair: one astral code point, 4-byte UTF-8.
  EXPECT_EQ(parse_json(R"({"s":"\ud83d\ude00"})").find("s")->text, "\xf0\x9f\x98\x80");
}

TEST(BenchJson, Utf8DecodingRoundTripsThroughFormatter) {
  // A decoded string re-emitted by the formatter must parse back unchanged
  // (the writer passes UTF-8 bytes through raw, which is valid JSON).
  const std::string text = parse_json(R"({"s":"\u00e9 \u2603 \ud83d\ude00"})").find("s")->text;
  const JsonValue again = parse_json("{\"s\":\"" + text + "\"}");
  EXPECT_EQ(again.find("s")->text, text);
}

TEST(BenchJson, RejectsMalformedUnicodeEscapes) {
  EXPECT_THROW(parse_json(R"({"s":"\u12"})"), Error);        // truncated
  EXPECT_THROW(parse_json(R"({"s":"\u12g4"})"), Error);      // bad hex digit
  EXPECT_THROW(parse_json(R"({"s":"\ud83d"})"), Error);      // lone high surrogate
  EXPECT_THROW(parse_json("{\"s\":\"\\ud83dx\\u0041\"}"), Error);     // high surrogate, no pair
  EXPECT_THROW(parse_json("{\"s\":\"\\ud83d\\u0041\"}"), Error);  // bad low surrogate
  EXPECT_THROW(parse_json(R"({"s":"\ude00"})"), Error);      // lone low surrogate
}

TEST(BenchJson, FormatterOutputValidates) {
  const std::string line =
      format_bench_record("ensemble", "swe_c12m4", 2, Timing{5, 1.25e-2, 1.2e-2, 1.5e-2}, 3.7,
                          "\"members\":4,\"mode\":\"batched\"");
  const JsonValue record = parse_json(line);
  EXPECT_TRUE(validate_bench_record(record).empty());
  EXPECT_EQ(record.find("members")->number, 4.0);
  EXPECT_EQ(record.find("seconds")->number, 1.25e-2);
  EXPECT_EQ(record.find("reps")->number, 5.0);
  EXPECT_EQ(record.find("min_seconds")->number, 1.2e-2);
  EXPECT_EQ(record.find("max_seconds")->number, 1.5e-2);
}

TEST(BenchJson, FormatterRendersNonFiniteAsNullAndValidatorNamesIt) {
  const std::string line = format_bench_record("b", "c", 1, Timing{1, 0.5, 0.5, 0.5},
                                               std::numeric_limits<double>::infinity());
  const JsonValue record = parse_json(line);  // must stay parseable
  const std::vector<std::string> problems = validate_bench_record(record);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("speedup"), std::string::npos);
}

TEST(BenchJson, RecordValidatorCatchesDrift) {
  auto problems_of = [](const std::string& text) {
    return validate_bench_record(parse_json(text));
  };
  // Valid timing fields; each case below swaps in one drifted member.
  const std::string timing = R"("reps":5,"min_seconds":9e-4,"max_seconds":2e-3)";
  const auto record = [&](const std::string& members, const std::string& timing_fields) {
    return "{" + members + "," + timing_fields + "}";
  };
  const std::string good = R"("bench":"b","config":"c","threads":2,"seconds":1e-3,"speedup":2.0)";
  EXPECT_TRUE(problems_of(record(good, timing)).empty());
  EXPECT_FALSE(problems_of(record(R"("config":"c","threads":2,"seconds":1e-3,"speedup":2.0)",
                                  timing))
                   .empty());  // bench missing
  EXPECT_FALSE(problems_of(record(
                   R"("bench":"b","config":"c","threads":2.5,"seconds":1e-3,"speedup":2.0)",
                   timing))
                   .empty());  // fractional threads
  EXPECT_FALSE(problems_of(record(
                   R"("bench":"b","config":"c","threads":2,"seconds":-1.0,"speedup":2.0)",
                   timing))
                   .empty());  // negative time
  EXPECT_FALSE(problems_of(record(
                   R"("bench":"b","config":"c","threads":2,"seconds":1e-3,"speedup":null)",
                   timing))
                   .empty());  // rendered non-finite
  EXPECT_FALSE(problems_of("{" + good + R"(,"min_seconds":9e-4,"max_seconds":2e-3})")
                   .empty());  // reps missing
  EXPECT_FALSE(problems_of(record(good, R"("reps":0,"min_seconds":9e-4,"max_seconds":2e-3)"))
                   .empty());  // reps 0
  EXPECT_FALSE(problems_of(record(good, R"("reps":2.5,"min_seconds":9e-4,"max_seconds":2e-3)"))
                   .empty());  // fractional reps
  EXPECT_FALSE(problems_of(record(good, R"("reps":5,"min_seconds":1.5e-3,"max_seconds":2e-3)"))
                   .empty());  // min_seconds > seconds
  EXPECT_FALSE(problems_of(record(good, R"("reps":5,"min_seconds":9e-4,"max_seconds":5e-4)"))
                   .empty());  // seconds > max_seconds
}

TEST(BenchJson, SnapshotValidatorRequiresProvenanceAndRecords) {
  const std::string good = R"({
    "bench":"x","description":"d","generated":"2026-08-08","git_sha":"abc","command":"x --y",
    "machine":{"os":"Linux","cpus":1,"toolchain":"c++"},
    "records":[{"bench":"x","config":"c","threads":1,"seconds":1e-3,"reps":1,
                "min_seconds":1e-3,"max_seconds":1e-3,"speedup":1.0}]})";
  EXPECT_TRUE(validate_bench_snapshot(parse_json(good)).empty());
  // Empty records array: a snapshot that measured nothing is rot, not data.
  const std::string empty_records = R"({
    "bench":"x","description":"d","generated":"g","git_sha":"abc","command":"x",
    "machine":{"os":"Linux","cpus":1,"toolchain":"c++"},"records":[]})";
  EXPECT_FALSE(validate_bench_snapshot(parse_json(empty_records)).empty());
}

// --- Repeated timing ----------------------------------------------------------

TEST(TimeReps, WarmsUpOnceThenTimesEveryRepetition) {
  // Call i (0 = the warm-up) sleeps sleeps_ms[i]. Sleeps only overshoot, and
  // the samples sit far enough apart that the overshoot cannot reorder them.
  struct Case {
    std::vector<int> sleeps_ms;
    double median_lo, median_hi;  ///< the median's window, ms
  };
  const Case cases[] = {
      // Odd count {2, 10, 50}: the middle sample, 10 ms.
      {{120, 50, 2, 10}, 10.0, 50.0},
      // Even count {2, 10, 50, 90}: the mean of the middle two, 30 ms. Either
      // middle sample alone falls outside [30, 50).
      {{120, 90, 10, 2, 50}, 30.0, 50.0},
  };
  for (const Case& c : cases) {
    int calls = 0;
    const int reps = static_cast<int>(c.sleeps_ms.size()) - 1;
    const Timing t = time_reps(reps, [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(c.sleeps_ms[calls]));
      ++calls;
    });
    EXPECT_EQ(calls, reps + 1);
    EXPECT_EQ(t.reps, reps);
    EXPECT_LE(t.min, t.median);
    EXPECT_LE(t.median, t.max);
    EXPECT_GE(t.median * 1e3, c.median_lo);
    EXPECT_LT(t.median * 1e3, c.median_hi);
    EXPECT_GE(t.min * 1e3, 2.0);
    EXPECT_LT(t.max * 1e3, 120.0);  // the untimed warm-up is not a sample
  }
}

// The committed BENCH_* trajectory snapshots themselves: parse + full schema
// check, so a hand-edited or printf-rotted snapshot fails here by name.
TEST(BenchSnapshots, CommittedTrajectoryFilesMatchSchema) {
  for (const char* name : {"BENCH_ensemble.json", "BENCH_tuning.json", "BENCH_elastic.json"}) {
    const std::string path = std::string(CYCLONE_SOURCE_DIR) + "/" + name;
    JsonValue snapshot;
    ASSERT_NO_THROW(snapshot = parse_json_file(path)) << path;
    const std::vector<std::string> problems = validate_bench_snapshot(snapshot);
    EXPECT_TRUE(problems.empty()) << path << ": " << (problems.empty() ? "" : problems[0]);
  }
}

}  // namespace
}  // namespace cyclone::perf
