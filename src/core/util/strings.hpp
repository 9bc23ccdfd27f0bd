#pragma once

#include <string>
#include <vector>

namespace cyclone::str {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Join elements with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Split on a single-character delimiter; keeps empty tokens.
std::vector<std::string> split(const std::string& s, char delim);

/// Strip leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// True if `s` ends with `suffix`.
bool ends_with(const std::string& s, const std::string& suffix);

/// Render a byte count as a human-readable string (e.g. "1.5 GiB").
std::string human_bytes(double bytes);

/// Render a duration in seconds with an adaptive unit (ns/us/ms/s).
std::string human_time(double seconds);

/// `prefix` followed by the decimal `n` ("q" and 3 give "q3"). Built by
/// appending: GCC 12 reports a false -Wrestrict (bug 105651) on
/// `"q" + std::to_string(n)`.
std::string numbered(const char* prefix, long n);

}  // namespace cyclone::str
