#pragma once

// Bench snapshot JSON support: the record formatter every bench binary
// shares, a minimal JSON parser, and schema validators for the committed
// BENCH_*.json trajectory files. The benches historically printed records
// with bare printf("%.3f") — a zero-time measurement then emitted
// "speedup":inf, which is not JSON, and nothing noticed until a human read
// the file. The shared formatter renders non-finite numbers as null (still
// parseable), and the validators reject null/non-finite numerics, so schema
// rot fails tests/test_perf.cpp instead of silently corrupting a snapshot.

#include <string>
#include <utility>
#include <vector>

#include "core/util/timer.hpp"

namespace cyclone::perf {

/// Minimal JSON document model — just enough for the bench snapshots
/// (objects, arrays, strings, finite numbers, booleans, null). Object keys
/// keep insertion order; duplicate keys are rejected by the parser.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<JsonValue> items;                            ///< Array
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
};

/// Parse a complete JSON document. Throws Error with the byte offset on
/// malformed input (trailing garbage, truncation, bad tokens, duplicate
/// object keys, non-finite number literals).
JsonValue parse_json(const std::string& text);

/// parse_json over a file's bytes; throws Error when the file is unreadable.
JsonValue parse_json_file(const std::string& path);

/// Render one measurement record: {"bench":...,"config":...,"threads":N,
/// "seconds":<median>,"reps":N,"min_seconds":...,"max_seconds":...,
/// "speedup":...<,extra>}. `speedup` is a ratio of medians. `extra` is a
/// pre-rendered JSON fragment ("\"key\":1,..."). Non-finite numbers render
/// as null so the output stays parseable and the validator names the rotten
/// field.
std::string format_bench_record(const std::string& bench, const std::string& config,
                                int threads, const Timing& timing, double speedup,
                                const std::string& extra = {});

/// Validate one record object. Required: bench/config non-empty strings,
/// threads and reps positive integers, seconds/min_seconds/max_seconds/
/// speedup finite positive numbers with min_seconds <= seconds <=
/// max_seconds; any additional numeric member (including nested ones) must
/// be finite. Returns one message per violation; empty means valid.
std::vector<std::string> validate_bench_record(const JsonValue& record);

/// Validate a committed BENCH_*.json snapshot. Required: bench/description/
/// generated/git_sha/command non-empty strings, machine object holding
/// os + toolchain strings and a positive integer cpus, and a non-empty
/// records array whose every element passes validate_bench_record.
std::vector<std::string> validate_bench_snapshot(const JsonValue& snapshot);

}  // namespace cyclone::perf
