#!/usr/bin/env python3
"""Determinism and layering analyzer for the iri sim/digest contract.

Builds a whole-program model from compile_commands.json (function
definitions, call graph, container iteration, include DAG) and verifies the
determinism contract (DESIGN.md §11):

  wall-clock-taint     no call path from WallClockNanos()/a raw clock read/
                       rand() into a digest, metrics-snapshot, MRT, trace or
                       series-JSONL sink (Stability::kWallClock instruments
                       in obs/profile.* are the one allowlisted source).
  unordered-in-output  no std::unordered_{map,set} iteration in any function
                       reachable from SnapshotText, digest writers,
                       MRT/trace/series emitters or the fixed-order merge
                       code.
  rng-discipline       every RNG draw goes through the seeded SplitMix64 /
                       Xoshiro streams (netbase/rng.h + ExchangeSubSeed);
                       no ad-hoc std::mt19937 / rand() / random() / <random>.
  wall-clock-confinement
                       no raw clock read (std::chrono clocks, time(),
                       gettimeofday, localtime, ...) outside
                       netbase/time.{h,cc}, whether or not it reaches a sink.
  thread-confinement   std::thread/std::async/mutexes/atomics only in
                       src/sim/parallel.cc (atomics also core/invariants.cc;
                       never in a header).
  include-layering     the netbase -> obs -> bgp -> {sim,mrt,topology,
                       analysis,igp} -> core -> workload layer order holds
                       over the full include DAG, and the DAG is acyclic.
  pragma-once          every header under src/ has #pragma once.
  not-analyzed         every source under src/ and tools/ is in the
                       compilation-database closure.

The clang python bindings give a libclang AST frontend when installed (CI
does this); otherwise a dependency-free parser reads the same compilation
database. Every finding fails the gate. Accept one (sparingly, with a reason
in a nearby comment) with `iri-det: allow(<check>)` in a comment on the
offending line.

Usage:
  iri_det.py [--root ROOT] [--compdb build/compile_commands.json]
  iri_det.py --self-test               fixture bad/good pairs, every frontend
  iri_det.py --must-flag FILE          exit 0 iff FILE has >=1 finding
                                       (used by the det_*_flagged ctests)

Exit status: 0 clean, 1 findings, 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from detlib import compdb as compdblib  # noqa: E402
from detlib import frontend_clang, frontend_fallback  # noqa: E402
from detlib.passes import CHECKS, DetConfig, run_all  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent / "detfixtures"

EXPECT_RE = re.compile(r"det-expect:\s*([a-z-]+)")


def build_model(compdb_path: pathlib.Path, root: pathlib.Path):
    """Model from the libclang frontend when usable, else the fallback. A
    clang frontend that throws (broken bindings, unparseable database)
    degrades to the fallback with a warning rather than failing the gate on
    tooling breakage."""
    if frontend_clang.available():
        try:
            return frontend_clang.build_model(compdb_path, root)
        except Exception as err:  # noqa: BLE001 - deliberate tooling firewall
            print(f"iri_det: clang frontend failed ({err}); "
                  "falling back to the stdlib frontend", file=sys.stderr)
    return frontend_fallback.build_model(compdb_path, root)


# --------------------------------------------------------------------------
# Self-test: analyze the committed fixture tree (bad/good snippet pairs,
# compiled in-tree by tools/lint/detfixtures/CMakeLists.txt) with every
# available frontend and require the det-expect markers to match exactly.

def fixture_files(fixtures: pathlib.Path) -> list[pathlib.Path]:
    return sorted(p for p in (fixtures / "src").rglob("*")
                  if p.suffix in (".cc", ".h"))


def fixture_expectations(fixtures: pathlib.Path
                         ) -> dict[str, tuple[set[str], set[tuple[int, str]]]]:
    """rel path -> (checks the file must produce, (line, check) pairs that
    must be reported on exactly that line). A marker in a comment-only line
    speaks for the file; one after code pins its own line."""
    out: dict[str, tuple[set[str], set[tuple[int, str]]]] = {}
    for path in fixture_files(fixtures):
        rel = path.relative_to(fixtures).as_posix()
        checks: set[str] = set()
        pinned: set[tuple[int, str]] = set()
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        for line_no, line in enumerate(lines, start=1):
            for check in EXPECT_RE.findall(line):
                checks.add(check)
                if line.split("//", 1)[0].strip():
                    pinned.add((line_no, check))
        bad = checks - set(CHECKS)
        if bad:
            raise SystemExit(f"iri_det: {rel} expects unknown checks {bad}")
        out[rel] = (checks, pinned)
    return out


def synth_compdb(fixtures: pathlib.Path, out_dir: pathlib.Path) -> pathlib.Path:
    entries = []
    for src in sorted((fixtures / "src").rglob("*.cc")):
        entries.append({
            "directory": str(fixtures),
            "file": str(src),
            "command": (f"g++ -std=c++20 -I{fixtures / 'src'} "
                        f"-c {src} -o /dev/null"),
        })
    path = out_dir / "compile_commands.json"
    path.write_text(json.dumps(entries, indent=1), encoding="utf-8")
    return path


def self_test() -> int:
    if not FIXTURES.is_dir():
        print(f"iri_det: fixture tree missing at {FIXTURES}", file=sys.stderr)
        return 2
    expectations = fixture_expectations(FIXTURES)
    frontends = [("fallback", frontend_fallback.build_model)]
    if frontend_clang.available():
        frontends.append(("clang", frontend_clang.build_model))

    failures: list[str] = []
    per_frontend_results: dict[str, dict[str, set[str]]] = {}
    with tempfile.TemporaryDirectory(prefix="iri_det_selftest_") as tmp:
        compdb_path = synth_compdb(FIXTURES, pathlib.Path(tmp))
        for name, builder in frontends:
            findings = run_all(builder(compdb_path, FIXTURES), DetConfig())
            got: dict[str, set[str]] = {rel: set() for rel in expectations}
            at: set[tuple[str, int, str]] = set()
            for f in findings:
                got.setdefault(f.file, set()).add(f.check)
                at.add((f.file, f.line, f.check))
            per_frontend_results[name] = got
            for rel, (expected, pinned) in sorted(expectations.items()):
                actual = got.get(rel, set())
                parts = []
                if expected - actual:
                    parts.append(f"missing {sorted(expected - actual)}")
                if actual - expected:
                    parts.append(f"unexpected {sorted(actual - expected)}")
                parts += [f"no {check} on line {line}"
                          for line, check in sorted(pinned)
                          if (rel, line, check) not in at]
                if parts:
                    failures.append(f"[{name}] {rel}: {', '.join(parts)}")

    if len(per_frontend_results) > 1:
        fb = per_frontend_results["fallback"]
        cl = per_frontend_results["clang"]
        for rel in expectations:
            if fb.get(rel, set()) != cl.get(rel, set()):
                failures.append(
                    f"[frontend-drift] {rel}: fallback={sorted(fb.get(rel, set()))} "
                    f"clang={sorted(cl.get(rel, set()))}")

    if failures:
        print("iri_det self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    names = ", ".join(name for name, _ in frontends)
    print(f"iri_det self-test passed: {len(expectations)} fixture files, "
          f"frontends: {names}.")
    return 0


# --------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--compdb", type=pathlib.Path, default=None,
                        help="compile_commands.json (default: ROOT/build/)")
    parser.add_argument("--must-flag", type=pathlib.Path, default=None,
                        help="exit 0 iff this file has at least one finding "
                             "(fixture-gap regression check)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root.resolve()
    compdb_path = compdblib.find_compdb(root, args.compdb)
    if compdb_path is None:
        print("iri_det: no compile_commands.json found (configure with "
              "`cmake -B build -S .` first, or pass --compdb)",
              file=sys.stderr)
        return 2

    model = build_model(compdb_path, root)

    keep = None
    if args.must_flag is not None:
        keep = pathlib.Path(args.must_flag)
        keep = keep.as_posix() if not keep.is_absolute() else \
            keep.resolve().relative_to(root).as_posix()

    findings = run_all(model, DetConfig(), keep=keep)

    if args.must_flag is not None:
        hits = [f for f in findings if f.file == keep]
        for f in hits:
            print(f)
        if hits:
            print(f"iri_det: {keep} flagged as required "
                  f"({len(hits)} finding(s), frontend={model.frontend}).")
            return 0
        print(f"iri_det: expected at least one finding in {keep}, got none "
              f"(frontend={model.frontend})", file=sys.stderr)
        return 1

    for f in findings:
        print(f)
    if os.environ.get("GITHUB_ACTIONS"):
        for f in findings:
            msg = f.message.replace("\n", " ")
            print(f"::error file={f.file},line={f.line},title=iri_det "
                  f"{f.check}::{msg}")
    if findings:
        print(f"iri_det: {len(findings)} finding(s) "
              f"(frontend={model.frontend}).")
        return 1
    print(f"iri_det: clean ({len(model.files)} files, "
          f"{len(model.functions)} functions, frontend={model.frontend}).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
