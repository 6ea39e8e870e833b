// Good: src/netbase/time.{h,cc} is the one sanctioned home of raw clock
// reads, the implementation behind WallClockNanos(). The same kind of read
// that fails in core/clock_bad.cc must pass here. Zero findings expected.

#include <chrono>
#include <cstdint>

namespace iri {

std::int64_t FxMonotonicNanos() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

}  // namespace iri
