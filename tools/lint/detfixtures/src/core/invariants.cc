// Good: this path (src/core/invariants.cc) is the one home of an atomic
// outside the fork-join pool: the invariant-failure count, bumped only on
// the cold failure path of any worker. The std::atomic that fails in
// threads_bad.cc and core/atomic_header_bad.h must pass here. Zero findings
// expected.

#include <atomic>

namespace iri::core {
namespace {
std::atomic<unsigned long> fx_failures{0};
}  // namespace

unsigned long FxRecordFailure() {
  return fx_failures.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace iri::core
