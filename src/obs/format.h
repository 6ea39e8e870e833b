// Number formatting shared by obs's text outputs: metrics snapshots, trace
// events and series records.
//
// std::to_chars, not printf: the series flush formats four records every
// 10 simulated seconds, and printf's locale and format-string machinery
// was a few percent of a whole campaign's profile. The text is the same
// byte for byte as "%llu", "%lld" and "%.6f": integers have one decimal
// spelling, and to_chars with a precision rounds the double's exact binary
// value to nearest, ties to even, as glibc's printf does in the default
// rounding mode. Digests and goldens hash this text, so it must not drift.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace iri::obs {

inline void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

inline void AppendI64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

// "%.6f": fixed notation with six decimals.
inline void AppendFixed6(std::string& out, double v) {
  // DBL_MAX has 309 integer digits; sign, point and decimals fit beside.
  char buf[320];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 6);
  out.append(buf, end);
}

}  // namespace iri::obs
