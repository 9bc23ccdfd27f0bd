#include "core/perf/benchjson.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/util/error.hpp"

namespace cyclone::perf {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over the whole document.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  bool consume_word(const char* word) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.text = parse_string();
        return v;
      }
      default: break;
    }
    JsonValue v;
    if (consume_word("null")) return v;
    if (consume_word("true")) {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = false;
      return v;
    }
    return parse_number();
  }

  JsonValue parse_number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) fail("invalid token");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + token + "'");
    if (!std::isfinite(value)) fail("non-finite number '" + token + "'");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = value;
    return v;
  }

  uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      value <<= 4;
      if (h >= '0' && h <= '9') value |= static_cast<uint32_t>(h - '0');
      else if (h >= 'a' && h <= 'f') value |= static_cast<uint32_t>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') value |= static_cast<uint32_t>(h - 'A' + 10);
      else fail(std::string("bad hex digit '") + h + "' in \\u escape");
    }
    return value;
  }

  static void append_utf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // Decode \uXXXX (and surrogate pairs) to UTF-8 so foreign tool
          // output round-trips instead of degrading to '?' placeholders.
          uint32_t cp = parse_hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) fail("lone low surrogate in \\u escape");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            const uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate in \\u escape");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default: fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      if (v.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void append_number(std::string& out, const char* fmt, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // parseable; the schema validator names the bad field
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, value);
  out += buf;
}

/// Every number reachable from `value` must be finite. (The parser already
/// rejects non-finite literals; this catches nulls standing in for them and
/// numbers arriving via other producers.)
void check_finite(const JsonValue& value, const std::string& where,
                  std::vector<std::string>& problems) {
  switch (value.kind) {
    case JsonValue::Kind::Number:
      if (!std::isfinite(value.number)) problems.push_back(where + ": non-finite number");
      break;
    case JsonValue::Kind::Array:
      for (size_t i = 0; i < value.items.size(); ++i) {
        check_finite(value.items[i], where + "[" + std::to_string(i) + "]", problems);
      }
      break;
    case JsonValue::Kind::Object:
      for (const auto& [key, member] : value.members) {
        check_finite(member, where + "." + key, problems);
      }
      break;
    default: break;
  }
}

void require_string(const JsonValue& object, const std::string& key, const std::string& where,
                    std::vector<std::string>& problems) {
  const JsonValue* v = object.find(key);
  if (v == nullptr || !v->is_string() || v->text.empty()) {
    problems.push_back(where + ": missing or empty string '" + key + "'");
  }
}

void require_positive_number(const JsonValue& object, const std::string& key,
                             const std::string& where, bool integral,
                             std::vector<std::string>& problems) {
  const JsonValue* v = object.find(key);
  if (v == nullptr || !v->is_number() || !std::isfinite(v->number) || v->number <= 0) {
    problems.push_back(where + ": missing or non-positive number '" + key + "'");
    return;
  }
  if (integral && v->number != std::floor(v->number)) {
    problems.push_back(where + ": '" + key + "' must be an integer");
  }
}

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse_document(); }

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read JSON file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_json(buf.str());
}

std::string format_bench_record(const std::string& bench, const std::string& config,
                                int threads, const Timing& timing, double speedup,
                                const std::string& extra) {
  std::string out = "{\"bench\":\"" + bench + "\",\"config\":\"" + config +
                    "\",\"threads\":" + std::to_string(threads) + ",\"seconds\":";
  append_number(out, "%.6e", timing.median);
  out += ",\"reps\":";
  out += std::to_string(timing.reps);
  out += ",\"min_seconds\":";
  append_number(out, "%.6e", timing.min);
  out += ",\"max_seconds\":";
  append_number(out, "%.6e", timing.max);
  out += ",\"speedup\":";
  append_number(out, "%.3f", speedup);
  if (!extra.empty()) out += "," + extra;
  out += "}";
  return out;
}

std::vector<std::string> validate_bench_record(const JsonValue& record) {
  std::vector<std::string> problems;
  if (!record.is_object()) {
    problems.emplace_back("record: not a JSON object");
    return problems;
  }
  require_string(record, "bench", "record", problems);
  require_string(record, "config", "record", problems);
  require_positive_number(record, "threads", "record", /*integral=*/true, problems);
  require_positive_number(record, "reps", "record", /*integral=*/true, problems);
  require_positive_number(record, "seconds", "record", /*integral=*/false, problems);
  require_positive_number(record, "min_seconds", "record", /*integral=*/false, problems);
  require_positive_number(record, "max_seconds", "record", /*integral=*/false, problems);
  require_positive_number(record, "speedup", "record", /*integral=*/false, problems);
  const auto number = [&](const char* key) {  // NaN (compares false) when absent
    const JsonValue* v = record.find(key);
    return v != nullptr && v->is_number() ? v->number : std::nan("");
  };
  if (number("min_seconds") > number("seconds") || number("seconds") > number("max_seconds")) {
    problems.emplace_back("record: expected min_seconds <= seconds <= max_seconds");
  }
  check_finite(record, "record", problems);
  return problems;
}

std::vector<std::string> validate_bench_snapshot(const JsonValue& snapshot) {
  std::vector<std::string> problems;
  if (!snapshot.is_object()) {
    problems.emplace_back("snapshot: not a JSON object");
    return problems;
  }
  for (const char* key : {"bench", "description", "generated", "git_sha", "command"}) {
    require_string(snapshot, key, "snapshot", problems);
  }
  const JsonValue* machine = snapshot.find("machine");
  if (machine == nullptr || !machine->is_object()) {
    problems.emplace_back("snapshot: missing 'machine' object");
  } else {
    require_string(*machine, "os", "machine", problems);
    require_string(*machine, "toolchain", "machine", problems);
    require_positive_number(*machine, "cpus", "machine", /*integral=*/true, problems);
  }
  const JsonValue* records = snapshot.find("records");
  if (records == nullptr || !records->is_array() || records->items.empty()) {
    problems.emplace_back("snapshot: missing or empty 'records' array");
    return problems;
  }
  for (size_t i = 0; i < records->items.size(); ++i) {
    for (const std::string& p : validate_bench_record(records->items[i])) {
      problems.push_back("records[" + std::to_string(i) + "] " + p);
    }
  }
  return problems;
}

}  // namespace cyclone::perf
