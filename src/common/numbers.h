// Numbers as text, for everything that crosses the program's boundary:
// session specs, wire requests and fault profiles.  Doubles print %.17g,
// which round-trips every value bit for bit.  The parsers are strict: the
// whole text must be the number (`seed=abc` or `value=1x` fails instead of
// reading as 0 or 1), out-of-range integers fail, unsigned parsers refuse
// signs ("-1" would wrap to 2^64 - 1), and doubles must be finite.
#pragma once

#include <cstdint>
#include <string>

namespace robotune {

/// %.17g: the shortest fixed convention that round-trips any double.
std::string format_double(double v);

bool parse_int(const std::string& text, int& out);
bool parse_u64(const std::string& text, std::uint64_t& out);
bool parse_double(const std::string& text, double& out);

/// The three parsers under one overloaded name, for generic callers.
inline bool parse_number(const std::string& text, int& out) {
  return parse_int(text, out);
}
inline bool parse_number(const std::string& text, std::uint64_t& out) {
  return parse_u64(text, out);
}
inline bool parse_number(const std::string& text, double& out) {
  return parse_double(text, out);
}

}  // namespace robotune
