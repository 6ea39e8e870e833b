// Positional-argument parsing for the examples. Each value must be the whole
// argument and in range; anything else prints the example's usage line and
// ends the run with exit code 2, so a mistyped argument never runs as a
// quiet default ("abc" hours used to simulate 0 hours and exit 0).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace iri::examples {

[[noreturn]] inline void RejectArg(const char* usage, const char* name,
                                   const char* text) {
  std::fprintf(stderr, "%s=%s: invalid value\nusage: %s\n", name, text, usage);
  std::exit(2);
}

// A finite number above zero.
inline double PositiveArg(const char* text, const char* name,
                          const char* usage) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) {
    RejectArg(usage, name, text);
  }
  return v;
}

// A decimal integer no smaller than `min`.
template <typename Int>
Int IntegerArg(const char* text, Int min, const char* name,
               const char* usage) {
  const char* end = text + std::strlen(text);
  Int v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < min) {
    RejectArg(usage, name, text);
  }
  return v;
}

}  // namespace iri::examples
