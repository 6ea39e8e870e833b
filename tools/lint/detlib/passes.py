"""The determinism and layering verification passes over a detlib Model.

Each pass emits Finding records; every finding fails the gate. Accepting
one means an `iri-det: allow(<check>)` comment on its line, where review
sees it.

Configuration lives in DetConfig. The defaults encode this repo's contract
(DESIGN.md §11): extend SINK_* / allowlists there when adding a new output
path, and add a fixture pair under tools/lint/detfixtures/ in the same
change.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

from . import compdb
from .model import FunctionInfo, Model

# --------------------------------------------------------------------------
# Findings

CHECKS = (
    "wall-clock-taint",
    "unordered-in-output",
    "rng-discipline",
    "wall-clock-confinement",
    "thread-confinement",
    "include-layering",
    "pragma-once",
    "not-analyzed",
)


@dataclasses.dataclass(frozen=True)
class Finding:
    check: str
    file: str
    line: int
    function: str  # qualified name, or "" for file-scope findings
    detail: str  # stable description of the violating construct
    message: str  # human-readable explanation (may include the call path)

    def __str__(self) -> str:
        where = f" (in {self.function})" if self.function else ""
        return f"{self.file}:{self.line}: [{self.check}]{where} {self.message}"


# --------------------------------------------------------------------------
# Configuration

@dataclasses.dataclass
class DetConfig:
    # Output sink roots: taint must not flow into these, and no function
    # reachable from them may iterate an unordered container. A function is
    # a root if its qualified name matches sink_name_re, or if it is defined
    # in a file matching sink_file_re (whole-file sinks: the MRT writer, the
    # trace/series emitters, the classic report/snapshot formatters).
    sink_name_re: re.Pattern = re.compile(
        r"::(SnapshotText|Digest|EncodeRecord|LogMessage"
        r"|Append|Flush|Merge|FormatCategoryReport|FormatTable)$")
    sink_file_re: re.Pattern = re.compile(
        r"^src/(mrt/|obs/trace\.|obs/timeseries\.|core/(report|snapshot)\.)")
    # Sink roots are only meaningful in these layers; a `Flush` on some
    # simulator buffer is not an output sink. The fixture prefix keeps
    # --must-flag working on the analyzer's own gap fixtures (ordinary repo
    # runs exclude that tree via exclude_re anyway).
    sink_root_dirs: tuple = ("src/mrt/", "src/obs/", "src/core/",
                             "src/workload/", "tools/lint/detfixtures/")

    # Taint sources beyond construct kinds {wallclock, rng}: calls to these
    # function names taint even when the body is out of model.
    source_call_names: frozenset = frozenset({"WallClockNanos"})

    # Functions where taint propagation stops: the profiling layer reads the
    # wall clock but records it only into Stability::kWallClock instruments,
    # which no snapshot includes (obs/profile.h).
    taint_allow_qname_re: re.Pattern = re.compile(r"(^|::)ScopedTimer(::|$)")
    taint_allow_file_re: re.Pattern = re.compile(r"^src/obs/profile\.")

    # Construct kind -> the only files it may appear in: the seeded
    # SplitMix64/Xoshiro streams, the wall-clock implementation behind
    # WallClockNanos(), the fork-join pool, and the invariant-failure
    # count. Atomics stay out of every header: one inlined into a hot path
    # would be a cache line every partition worker writes.
    sanctioned: dict = dataclasses.field(default_factory=lambda: {
        "rng": frozenset({"src/netbase/rng.h"}),
        "wallclock": frozenset({"src/netbase/time.h", "src/netbase/time.cc"}),
        "thread": frozenset({"src/sim/parallel.cc"}),
        "atomic": frozenset({"src/sim/parallel.cc", "src/core/invariants.cc"}),
    })
    # First-party code: confinement applies here (tests and benches may time
    # themselves or exercise the pool directly), and every source here must
    # be in the compilation-database closure.
    first_party: tuple = ("src/", "tools/")

    # Layering: directory under src/ -> directories it may include.
    layers: dict = dataclasses.field(default_factory=lambda: {
        "netbase": {"netbase"},
        "obs": {"obs", "netbase"},
        "bgp": {"bgp", "obs", "netbase"},
        "sim": {"sim", "bgp", "obs", "netbase"},
        "mrt": {"mrt", "bgp", "obs", "netbase"},
        "topology": {"topology", "bgp", "obs", "netbase"},
        "analysis": {"analysis", "obs", "netbase"},
        "igp": {"igp", "sim", "bgp", "obs", "netbase"},
        "core": {"core", "mrt", "sim", "bgp", "obs", "netbase"},
        "workload": {"workload", "core", "igp", "mrt", "sim", "topology",
                     "analysis", "bgp", "obs", "netbase"},
    })
    layering_exceptions: frozenset = frozenset({"core/invariants.h"})
    no_exception_layers: frozenset = frozenset({"netbase"})

    # Paths excluded from repo analysis (the analyzer's own deliberately
    # broken fixtures). --must-flag re-enables a specific file.
    exclude_re: re.Pattern = re.compile(r"^tools/lint/detfixtures/")


# --------------------------------------------------------------------------
# Call-graph reachability

def sink_roots(model: Model, cfg: DetConfig) -> list[FunctionInfo]:
    roots = []
    for fn in model.iter_functions():
        in_sink_file = bool(cfg.sink_file_re.search(fn.file))
        name_hit = bool(cfg.sink_name_re.search("::" + fn.qname))
        dir_ok = fn.file.startswith(tuple(cfg.sink_root_dirs))
        if in_sink_file or (name_hit and dir_ok):
            roots.append(fn)
    return roots


def reachable_from(model: Model, roots: list[FunctionInfo],
                   stop: "callable" = None) -> dict[str, tuple]:
    """BFS over the call graph. Returns fn-key -> (fn, chain) where chain is
    the qname path from a root. `stop(fn)` prunes propagation below fn."""
    seen: dict[str, tuple] = {}
    work: list[tuple[FunctionInfo, tuple]] = [(r, (r.qname,)) for r in roots]
    while work:
        fn, chain = work.pop()
        key = f"{fn.qname}@{fn.file}:{fn.line}"
        if key in seen:
            continue
        seen[key] = (fn, chain)
        if stop is not None and stop(fn):
            continue
        for call in fn.calls:
            for callee in model.resolve_callees(call.name):
                ckey = f"{callee.qname}@{callee.file}:{callee.line}"
                if ckey not in seen:
                    work.append((callee, chain + (callee.qname,)))
    return seen


# --------------------------------------------------------------------------
# Passes

def _excluded(cfg: DetConfig, path: str, keep: str | None) -> bool:
    if keep is not None and path == keep:
        return False
    return bool(cfg.exclude_re.search(path))


def pass_wallclock_taint(model: Model, cfg: DetConfig,
                         keep: str | None = None) -> list[Finding]:
    findings: list[Finding] = []
    roots = sink_roots(model, cfg)

    def allowed(fn: FunctionInfo) -> bool:
        return (bool(cfg.taint_allow_qname_re.search(fn.qname))
                or bool(cfg.taint_allow_file_re.search(fn.file)))

    reach = reachable_from(model, roots, stop=allowed)
    impl_files = cfg.sanctioned["wallclock"] | cfg.sanctioned["rng"]
    for fn, chain in reach.values():
        if allowed(fn) and fn.qname != chain[0]:
            continue
        if _excluded(cfg, fn.file, keep):
            continue
        tainted = [c for c in fn.constructs if c.kind in ("wallclock", "rng")]
        if fn.file in impl_files:
            tainted = []
        for use in tainted:
            if model.suppressed(fn.file, use.line, "wall-clock-taint"):
                continue
            via = " -> ".join(chain)
            findings.append(Finding(
                "wall-clock-taint", fn.file, use.line, fn.qname,
                f"{use.detail} reachable from {chain[0]}",
                f"{use.detail} feeds an output sink via {via}; digests/"
                "MRT/series bytes must be wall-clock independent "
                "(route wall time through Stability::kWallClock instruments)"))
        # Calls to wall-clock sources (WallClockNanos): the sanctioned API
        # is no raw read, so only reaching a sink makes it a finding.
        for call in fn.calls:
            base = call.name.rsplit("::", 1)[-1]
            if base in cfg.source_call_names and not allowed(fn):
                if fn.file in impl_files:
                    continue
                if model.suppressed(fn.file, call.line, "wall-clock-taint"):
                    continue
                via = " -> ".join(chain)
                findings.append(Finding(
                    "wall-clock-taint", fn.file, call.line, fn.qname,
                    f"call to {base} reachable from {chain[0]}",
                    f"{base}() feeds an output sink via {via}"))
    return findings


def pass_unordered_in_output(model: Model, cfg: DetConfig,
                             keep: str | None = None) -> list[Finding]:
    findings: list[Finding] = []
    roots = sink_roots(model, cfg)
    reach = reachable_from(model, roots)
    for fn, chain in reach.values():
        if _excluded(cfg, fn.file, keep):
            continue
        for site in fn.unordered_iters:
            if model.suppressed(fn.file, site.line, "unordered-in-output"):
                continue
            via = " -> ".join(chain)
            findings.append(Finding(
                "unordered-in-output", fn.file, site.line, fn.qname,
                f"unordered iteration over `{site.expr}` reachable from "
                f"{chain[0]}",
                f"iterates an unordered container (`{site.expr}`) on an "
                f"output path ({via}); hash order varies across libstdc++ "
                "versions — sort keys first or use std::map"))
    return findings


# Construct kind -> (check, what is wrong with it outside
# DetConfig.sanctioned[kind]).
CONFINEMENT = {
    "rng": ("rng-discipline",
            "bypasses the seeded SplitMix64/Xoshiro streams (netbase/rng.h); "
            "derive a sub-seed via ExchangeSubSeed/Rng::Fork instead"),
    "wallclock": ("wall-clock-confinement",
                  "reads the wall clock outside netbase/time.*; iri runs on "
                  "simulated time only (WallClockNanos() is the one door)"),
    "thread": ("thread-confinement",
               "outside sim/parallel.cc; use sim::ParallelFor over "
               "independent partitions"),
    "atomic": ("thread-confinement",
               "outside sim/parallel.cc and core/invariants.cc; shared "
               "mutable state breaks bit-for-bit reproducibility"),
}


def pass_confinement(model: Model, cfg: DetConfig,
                     keep: str | None = None) -> list[Finding]:
    """rng-discipline, wall-clock-confinement and thread-confinement: each
    construct kind may appear only in its sanctioned files."""
    findings: list[Finding] = []
    by_file: dict[str, list[tuple]] = {}
    for fn in model.iter_functions():
        by_file.setdefault(fn.file, []).extend(
            (c, fn.qname) for c in fn.constructs)
    for path, info in model.files.items():
        if _excluded(cfg, path, keep):
            continue
        if not path.startswith(cfg.first_party) and path != keep:
            continue
        scoped = by_file.get(path, []) + [(c, "") for c in info.constructs]
        for use, qname in scoped:
            check, remedy = CONFINEMENT[use.kind]
            if path in cfg.sanctioned[use.kind]:
                continue
            if model.suppressed(path, use.line, check):
                continue
            findings.append(Finding(check, path, use.line, qname, use.detail,
                                    f"{use.detail} {remedy}"))
    return findings


def pass_pragma_once(model: Model, cfg: DetConfig,
                     keep: str | None = None) -> list[Finding]:
    findings: list[Finding] = []
    for path, info in model.files.items():
        if _excluded(cfg, path, keep) or info.pragma_once:
            continue
        if not (path.startswith("src/") and path.endswith((".h", ".hpp"))):
            continue
        if model.suppressed(path, 1, "pragma-once"):
            continue
        findings.append(Finding("pragma-once", path, 1, "",
                                "missing #pragma once",
                                "header lacks #pragma once"))
    return findings


def pass_not_analyzed(model: Model, cfg: DetConfig,
                      keep: str | None = None) -> list[Finding]:
    """A first-party source no build target reaches is checked by nothing:
    build it or delete it."""
    findings: list[Finding] = []
    for path in compdb.tree_sources(model.root, cfg.first_party):
        if path in model.files or _excluded(cfg, path, keep):
            continue
        findings.append(Finding(
            "not-analyzed", path, 1, "", "outside the compilation database",
            "no translation unit in compile_commands.json reaches this "
            "file, so no check covers it; build it or delete it"))
    return findings


def _layer_of(path: str) -> str | None:
    parts = path.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def pass_include_layering(model: Model, cfg: DetConfig,
                          keep: str | None = None) -> list[Finding]:
    findings: list[Finding] = []
    # Layer-order violations.
    for path, info in model.files.items():
        if _excluded(cfg, path, keep):
            continue
        layer = _layer_of(path)
        if layer is None or layer not in cfg.layers:
            continue
        allowed = cfg.layers[layer]
        for edge in info.includes:
            if (edge.target in cfg.layering_exceptions
                    and layer not in cfg.no_exception_layers):
                continue
            target_dir = edge.target.split("/", 1)[0] \
                if "/" in edge.target else layer
            if target_dir in cfg.layers and target_dir not in allowed:
                if model.suppressed(path, edge.line, "include-layering"):
                    continue
                findings.append(Finding(
                    "include-layering", path, edge.line, "",
                    f"includes {edge.target}",
                    f"layer '{layer}' may not include '{edge.target}' "
                    f"(allowed: {', '.join(sorted(allowed))})"))

    # Include cycles over the file graph (src/-rooted resolution).
    graph: dict[str, list[tuple[str, int]]] = {}
    for path, info in model.files.items():
        if _excluded(cfg, path, keep):
            continue
        edges = []
        for edge in info.includes:
            same_dir = str(pathlib.PurePosixPath(path).parent / edge.target)
            for candidate in (f"src/{edge.target}", same_dir):
                if candidate in model.files:
                    edges.append((candidate, edge.line))
                    break
        graph[path] = edges

    WHITE, GREY, BLACK = 0, 1, 2
    color = {p: WHITE for p in graph}
    reported: set[tuple[str, str]] = set()

    def dfs(node: str, stack: list[str]) -> None:
        color[node] = GREY
        stack.append(node)
        for target, line in graph.get(node, []):
            if color.get(target, BLACK) == GREY:
                cyc = stack[stack.index(target):] + [target]
                edge_id = (node, target)
                if edge_id not in reported:
                    reported.add(edge_id)
                    findings.append(Finding(
                        "include-layering", node, line, "",
                        f"include cycle via {target}",
                        "include cycle: " + " -> ".join(cyc)))
            elif color.get(target) == WHITE:
                dfs(target, stack)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node, [])
    return findings


PASSES = (
    pass_wallclock_taint,
    pass_unordered_in_output,
    pass_confinement,
    pass_include_layering,
    pass_pragma_once,
    pass_not_analyzed,
)


def run_all(model: Model, cfg: DetConfig | None = None,
            keep: str | None = None) -> list[Finding]:
    cfg = cfg or DetConfig()
    out: set[Finding] = set()
    for run in PASSES:
        out.update(run(model, cfg, keep=keep))
    return sorted(out, key=lambda f: (f.file, f.line, f.check, f.detail,
                                      f.function, f.message))
