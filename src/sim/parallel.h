// The one sanctioned threading primitive in iri: a bounded fork-join helper
// for embarrassingly-parallel index spaces.
//
// Everything in this codebase is a deterministic discrete-event simulation;
// free-form threading would destroy the bit-for-bit reproducibility the
// whole repo is built around. The only parallelism that preserves it is
// *partition* parallelism: independent sub-simulations (one scheduler, one
// RNG stream, private sinks each) whose results are merged in a fixed order
// afterwards. ParallelFor is exactly that shape and nothing more: it runs
// fn(0..n-1) with no ordering guarantees, so fn must never touch state
// shared across indices. tools/lint/iri_det.py bans std::thread/std::async
// and friends everywhere outside src/sim/parallel.cc to keep it that way.
#pragma once

#include <functional>

namespace iri::sim {

// Worker count used when callers pass threads <= 0: the IRI_PARALLEL_EXCHANGES
// environment variable when set to a positive integer, otherwise the
// hardware concurrency (minimum 1). IRI_PARALLEL_EXCHANGES=1 forces the
// serial path through the calling thread.
int DefaultParallelism();

// Invokes fn(i) for every i in [0, n) across up to `threads` workers
// (threads <= 0 means DefaultParallelism()). With one worker everything runs
// inline on the calling thread — byte-identical to a plain loop. fn must
// only touch state owned by its index; the first exception thrown by any
// invocation is rethrown on the calling thread after all workers join.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

}  // namespace iri::sim
