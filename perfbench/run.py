#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload corpus_serial --seed 1996 \
        --seconds 60 --trace 0

Run from the repository root. The first run builds the simulator and the
perfbench binary from source (CMake, into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench); later runs only check the build is current.

Every repetition is its own process, so each starts from a fresh heap and
reports its own peak RSS. Repetitions run while another one still fits in
--seconds (at least MIN_REPS of them), and each end-to-end metric is the
median over the repetitions of that repetition's own value; the first
quartile and the count go to stderr beside it.
With --trace 1 the run alternates untraced and traced repetitions and prints
the per-layer metrics instead; spans go to <build>/traces/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. Every
correctness check of every repetition counts as one attempted operation; see
perfbench/README.md for the checks, the metrics and the workloads.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

THREADS = {"corpus_serial": 1, "corpus_parallel": 4}  # exchange workers
MIN_REPS = 3
# No repetition starts after this many seconds, keeping a run under the
# 180 s a run may take.
DEADLINE_S = 120
REP_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    if not os.path.isfile(
            os.path.join(ROOT, "src", "workload", "multi_exchange_runner.h")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def stage(binary, args):
    """One repetition; its parsed JSON report, or None if it failed."""
    cmd = [binary] + args
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(cmd))
        return None
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        log("perfbench: failed (%d): %s\n%s" % (p.returncode, " ".join(cmd),
                                                p.stderr))
        return None
    rep = json.loads(lines[-1])
    log("perfbench: %s%s %s" % (args[2], " traced" if "--trace" in args
                                 else "", " ".join(
        "%s=%.4g" % (k, v) for k, v in rep["metrics"].items()
        if "." not in k)))
    return rep


class Tally:
    """Correctness checks across the run: attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("perfbench: FAILED:", what)

    def report(self, rep, what):
        """Folds in one repetition's own checks; a crashed one is a failure."""
        if rep is None:
            self.check(False, what + " did not complete")
            return None
        self.attempted += rep["checks"]
        self.failed += rep["failures"]
        for note in rep["notes"]:
            log("perfbench: FAILED:", what + ":", note)
        return rep


def corpus_args(opts, threads, traced=False, logs_dir=None, spans=None):
    args = ["corpus", "--seed=%d" % opts.seed, "--threads=%d" % threads,
            "--scale=%d" % opts.scale]
    if opts.flip_byte:
        args.append("--flip-byte")
    if traced:
        args.append("--trace")
    if logs_dir:
        args.append("--logs-dir=" + logs_dir)
    if spans:
        args.append("--spans-out=" + spans)
    return args


def repeat(opts, start, one_rep):
    """Calls one_rep(i) while another call is expected to end within
    --seconds of `start` (at least --min-reps times)."""
    reps = []
    took = []
    while True:
        elapsed = time.monotonic() - start
        if reps and (elapsed > DEADLINE_S or
                     (len(reps) >= opts.min_reps and
                      elapsed + statistics.median(took) > opts.seconds)):
            return reps
        t = time.monotonic()
        reps.append(one_rep(len(reps)))
        took.append(time.monotonic() - t)


def values_of(reps, name):
    return [r["metrics"][name] for r in reps
            if r is not None and name in r["metrics"]]


def median_of(reps, name):
    values = values_of(reps, name)
    return statistics.median(values) if values else float("nan")


def spans_path(opts, i):
    d = os.path.join(build_dir(), "traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, "%s-seed%d-rep%d.spans.jsonl" %
                        (opts.workload, opts.seed, i))


def run_corpus(opts, binary, tally, scratch):
    threads = THREADS[opts.workload]
    name = opts.workload
    start = time.monotonic()

    # Determinism gate: every repetition must reproduce one digest, and at
    # more than one worker that digest must be the serial run's.
    reference = None
    if threads != 1:
        ref = tally.report(stage(binary, corpus_args(opts, 1)),
                           "serial reference run")
        reference = ref["digest"] if ref else None

    if not opts.trace:
        reps = repeat(opts, start, lambda i: tally.report(
            stage(binary, corpus_args(opts, threads)), "%s rep %d" % (name, i)))
        untraced, layers = reps, {}
    else:
        pairs = repeat(opts, start, lambda i: (
            tally.report(stage(binary, corpus_args(opts, threads)),
                         "%s rep %d" % (name, i)),
            tally.report(stage(binary, corpus_args(
                opts, threads, traced=True, logs_dir=scratch,
                spans=spans_path(opts, i))), "%s traced rep %d" % (name, i))))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        layers = {n: median_of(traced, n) for n in opts.layer_names}
        # The traced replay reads the clock three times a record; the
        # replay's own time comes from the untraced repetitions.
        layers["replay_s_per_simday"] = median_of(untraced,
                                                  "replay_s_per_simday")
        layers["obs.profile_overhead"] = (
            median_of(traced, "run_wall_s") /
            median_of(untraced, "run_wall_s") - 1)
        reps = untraced + traced

    done = [r for r in reps if r is not None]
    if threads == 1 and done:
        reference = done[0]["digest"]
    for i, r in enumerate(done):
        tally.check(r["digest"] == reference,
                    "rep %d digest %s != serial digest %s" %
                    (i, r["digest"], reference))
    return untraced, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1996)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py); the defaults are the
    # benchmark.
    ap.add_argument("--scale", type=int, default=1,
                    help="universe scale denominator (1 = 42 k prefixes)")
    ap.add_argument("--min-reps", type=int, default=MIN_REPS)
    ap.add_argument("--flip-byte", action="store_true",
                    help="corrupt one byte of a log before the gate replay")
    opts = ap.parse_args()

    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        if opts.workload not in THREADS:
            raise BenchError("unknown workload " + opts.workload)
        listed = spec["per_layer"] if opts.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in listed}
        opts.layer_names = [m["name"] for m in spec["per_layer"]]

        binary = build()
        tally = Tally()
        scratch = tempfile.mkdtemp(prefix="logs-", dir=build_dir())
        try:
            reps, layers = run_corpus(opts, binary, tally, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except BenchError as e:
        log("perfbench:", e)
        return 1

    if not opts.trace:
        for n in units:
            v = values_of(reps, n)
            if len(v) >= 2:
                log("perfbench: %-22s median %.6g  q1 %.6g  n %d" %
                    (n, statistics.median(v), statistics.quantiles(v, n=4)[0],
                     len(v)))
    values = layers if opts.trace else {n: median_of(reps, n) for n in units}
    metrics = {}
    for n, unit in units.items():
        v = values.get(n, float("nan"))
        if opts.trace:
            tally.check(math.isfinite(v), "metric %s = %r" % (n, v))
        else:
            tally.check(math.isfinite(v) and v > 0, "metric %s = %r" % (n, v))
        metrics[n] = {"value": v if math.isfinite(v) else None, "unit": unit}
    done = sum(r is not None for r in reps)
    log("perfbench: %s seed %d: %d repetition(s), %d/%d checks failed" %
        (opts.workload, opts.seed, done, tally.failed, tally.attempted))
    for n, m in metrics.items():
        print("%-36s %14.6g %s" % (n, m["value"] if m["value"] is not None
                                   else float("nan"), m["unit"]))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
