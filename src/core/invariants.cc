// iri_det's thread-confinement check sanctions std::atomic here and in
// sim/parallel.cc only: failures may be raised on any partition worker, and
// a passing IRI_ASSERT never reaches this file.
#include "core/invariants.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace iri::inv {
namespace {

std::atomic<std::uint64_t> g_failures{0};
std::atomic<Policy> g_policy{Policy::kAbort};

}  // namespace

void SetPolicy(Policy p) { g_policy.store(p, std::memory_order_relaxed); }

std::uint64_t FailureCount() {
  return g_failures.load(std::memory_order_relaxed);
}

void ResetForTest() {
  g_failures.store(0, std::memory_order_relaxed);
  g_policy.store(Policy::kAbort, std::memory_order_relaxed);
}

void InvariantFailed(const char* expr, const char* file, int line,
                     const char* message) {
  g_failures.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "[iri invariant] %s:%d: (%s) violated: %s\n", file,
               line, expr, message);
  if (g_policy.load(std::memory_order_relaxed) == Policy::kAbort) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace iri::inv
