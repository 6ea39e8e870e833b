// Runtime invariant auditing: IRI_ASSERT / IRI_DCHECK.
//
// The paper's results are only as good as the state machines backing them —
// a silent off-by-one in per-(Prefix, peer) classifier state would change
// Figure 2 outright. These macros let the classifier, RIB, session FSM and
// scheduler audit their own invariants in every build, with a policy knob so
// tests can observe failures without dying:
//
//   IRI_ASSERT(cond, "message")   runs in every build: evaluates `cond`
//                                 once and, on failure, consults the global
//                                 policy: abort (default) or log-and-continue.
//   IRI_DCHECK(cond, "message")   as IRI_ASSERT, but compiled to nothing in
//                                 NDEBUG builds (the condition is not
//                                 evaluated); for O(n) audits too slow for
//                                 release hot paths.
//
// Only failures are counted, on the cold path in invariants.cc
// (FailureCount()); a passing check writes no memory. The macros run tens of
// millions of times per simulated campaign on every partition worker, so a
// shared evaluation counter would be one cache line bouncing between cores.
// The failure count and the policy live in invariants.cc, and iri_det keeps
// every atomic out of headers (DESIGN.md §7, §8).
//
// This header is deliberately self-contained (standard library only) so any
// layer — netbase excepted, which stays dependency-free — can include it
// without upward link dependencies: it is built as its own tiny library
// (`iri_invariants`) at the bottom of the link order.
#pragma once

#include <cstdint>

namespace iri::inv {

// What to do when an invariant fails.
enum class Policy : std::uint8_t {
  kAbort,  // print expr/file/line to stderr, then std::abort() (default)
  kLog,    // print to stderr, count the failure, continue
};

// Sets the process-wide failure policy.
void SetPolicy(Policy p);

// Failures observed since start-up or the last ResetForTest(), summed over
// every thread.
std::uint64_t FailureCount();

// Resets the failure count and restores the abort policy; tests use this to
// isolate their observations.
void ResetForTest();

// Cold path: records the failure and applies the policy. Returns only under
// Policy::kLog.
void InvariantFailed(const char* expr, const char* file, int line,
                     const char* message);

}  // namespace iri::inv

#define IRI_ASSERT(cond, message)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::iri::inv::InvariantFailed(#cond, __FILE__, __LINE__, (message));   \
    }                                                                      \
  } while (false)

#if defined(NDEBUG)
#define IRI_DCHECK(cond, message) ((void)0)
#else
#define IRI_DCHECK(cond, message) IRI_ASSERT(cond, message)
#endif
