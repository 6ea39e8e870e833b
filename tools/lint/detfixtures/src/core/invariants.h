// Good: stands in for the invariant-audit header at the path the layering
// exception names. Every layer above netbase may include core/invariants.h
// (its library links from the bottom of the stack). It holds no atomic: the
// failure count lives in core/invariants.cc, and an atomic in any header is
// a thread-confinement finding (core/atomic_header_bad.h). Zero findings
// expected. The self-test resolves includes inside this tree; the in-tree
// build finds the repo's own src/core/invariants.h first, which is valid
// for the same includes.
#pragma once
