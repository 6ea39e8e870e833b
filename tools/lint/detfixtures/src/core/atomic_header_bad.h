// Bad: an atomic counter in a header. Every hot path that inlines
// FxCountCheck writes the same process-wide cache line, so partition
// workers that share no state on paper contend on it in practice. Atomics
// belong in src/sim/parallel.cc and src/core/invariants.cc only.
//
// det-expect: thread-confinement
#pragma once

#include <atomic>  // det-expect: thread-confinement

namespace iri::core {
inline std::atomic<unsigned long> fx_check_count{0};  // det-expect: thread-confinement

inline void FxCountCheck() {
  fx_check_count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace iri::core
