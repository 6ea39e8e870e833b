"""detlib: semantic determinism analysis for the iri sim/digest contract.

This package backs tools/lint/iri_det.py. It builds a per-translation-unit
semantic model (function definitions, call sites, range-for loops over
unordered containers, wall-clock / RNG / threading constructs, the #include
graph) from compile_commands.json and runs verification passes over it:

  wall-clock-taint     no call path from a wall-clock or ad-hoc RNG read into
                       a digest / snapshot / MRT / series-JSONL sink
  unordered-in-output  no unordered-container iteration inside any function
                       reachable from an output sink root
  rng-discipline       every RNG draw goes through the seeded SplitMix64 /
                       Xoshiro streams in netbase/rng.h
  wall-clock-confinement
                       raw clock reads confined to netbase/time.{h,cc}
  thread-confinement   raw threading primitives confined to sim/parallel.cc
  include-layering     the netbase -> obs -> bgp -> {sim,mrt,...} -> core ->
                       workload include DAG holds, and has no cycles
  pragma-once          every src/ header has #pragma once
  not-analyzed         no src/ or tools/ source sits outside the closure

Two interchangeable frontends produce the model:

  * frontend_clang    libclang AST (exact types and resolved callees); used
                      when the clang python bindings + libclang are present
                      (the CI static-analysis job installs them).
  * frontend_fallback pure-stdlib tokenizer/parser driven by the same
                      compile_commands.json; approximate (name-based callee
                      resolution, regex-assisted type table) but dependency
                      free, so the gate runs everywhere.

Both frontends emit the same Model; the passes are frontend-agnostic, and the
fixture self-test (iri_det.py --self-test) exercises every available frontend
against the same bad/good snippet pairs so they cannot drift apart silently.
"""

from __future__ import annotations

__all__ = [
    "compdb",
    "frontend_fallback",
    "model",
    "passes",
]
