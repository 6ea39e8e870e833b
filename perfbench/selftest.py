#!/usr/bin/env python3
"""Self-test of the perfbench harness on a tiny universe (1/64 scale).

    python3 perfbench/selftest.py

Checks, in about a minute:
  * every workload, untraced and traced, passes its correctness gate and
    prints every metric BENCHMARK.json names, each with its unit;
  * flipping one byte of a replayed MRT log makes the gate report a failure.
Exits 0 when every check holds. Builds like run.py does.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "64", "--seconds", "0", "--min-reps", "1"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace)] + TINY + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, p.stderr
    return json.loads(lines[-1]), p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = "%s --trace %d" % (w, trace)
            result, err = run(w, trace)
            expect(result is not None, what + " exits 0 with a result")
            if result is None:
                sys.stderr.write(err)
                continue
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   what + " passes its gate (%d attempted, %d failed)" %
                   (result["attempted"], result["failed"]))
            got = result["metrics"]
            expect(set(got) == {m["name"] for m in listed},
                   what + " emits exactly the listed metrics")
            bad = [m["name"] for m in listed
                   if got.get(m["name"], {}).get("unit") != m["unit"] or
                   got.get(m["name"], {}).get("value") is None]
            expect(not bad, what + " gives each a value and its unit " +
                   (str(bad) if bad else ""))

    result, _ = run("corpus_serial", 0, "--flip-byte")
    expect(result is not None and not result["correct"] and
           result["failed"] >= 1,
           "one flipped log byte fails the gate (%s)" %
           ("no result" if result is None else
            "%d of %d failed" % (result["failed"], result["attempted"])))

    print("%d check(s) failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
