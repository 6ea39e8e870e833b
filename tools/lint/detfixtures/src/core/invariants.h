// Good: stands in for the invariant-audit header at the path its
// exemptions name. Every layer above netbase may include core/invariants.h
// (its library links from the bottom of the stack), and its audit counters
// keep their std::atomic exemption from thread-confinement. Zero findings
// expected. The self-test resolves includes inside this tree; the in-tree
// build finds the repo's own src/core/invariants.h first, which is valid
// for the same includes.
#pragma once

#include <atomic>

namespace iri::core {
inline std::atomic<unsigned long> fx_audit_count{0};
}  // namespace iri::core
