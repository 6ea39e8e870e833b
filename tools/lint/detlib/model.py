"""Frontend-agnostic semantic model shared by the analysis passes.

A Model is a whole-program view assembled from every translation unit in
compile_commands.json plus the repo headers they include. It deliberately
stores *less* than a full AST: only the facts the determinism passes need,
so both the libclang frontend and the fallback parser can produce it.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Iterable


@dataclasses.dataclass
class CallSite:
    """A call expression inside a function body.

    `name` is the callee as resolved by the frontend: the libclang frontend
    records the fully qualified name of the referenced declaration; the
    fallback frontend records the (possibly partially qualified) spelling at
    the call site. Passes resolve through Model.resolve_callees() which
    accepts both.
    """

    name: str
    line: int


@dataclasses.dataclass
class ConstructUse:
    """A determinism-relevant construct inside a function (or at file scope).

    kind is one of:
      "wallclock"  raw wall-clock read (std::chrono system/steady clocks,
                   time(), gettimeofday, clock_gettime, localtime, ...);
                   a WallClockNanos() call is a CallSite, not a construct
      "rng"        ad-hoc RNG (std::mt19937, std::random_device, rand(), ...)
      "thread"     raw threading (std::thread/jthread/async, mutexes,
                   condition variables, semaphores, threading headers)
      "atomic"     std::atomic / <atomic>
    """

    kind: str
    detail: str
    line: int


@dataclasses.dataclass
class IterSite:
    """An iteration over an unordered associative container."""

    expr: str  # source spelling of the iterated expression (best effort)
    line: int


@dataclasses.dataclass
class FunctionInfo:
    qname: str  # qualified name, e.g. "iri::workload::MultiExchangeResult::Digest"
    name: str  # last component
    file: str  # repo-relative posix path
    line: int  # definition start
    end_line: int = 0
    calls: list[CallSite] = dataclasses.field(default_factory=list)
    constructs: list[ConstructUse] = dataclasses.field(default_factory=list)
    unordered_iters: list[IterSite] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class IncludeEdge:
    target: str  # include path as written, e.g. "bgp/rib.h"
    line: int


@dataclasses.dataclass
class FileInfo:
    path: str  # repo-relative posix path
    includes: list[IncludeEdge] = dataclasses.field(default_factory=list)
    # Constructs at file scope (globals, header-level includes of <thread>...)
    constructs: list[ConstructUse] = dataclasses.field(default_factory=list)
    # line -> set of check ids suppressed via `iri-det: allow(<check>)`.
    suppressions: dict[int, set[str]] = dataclasses.field(default_factory=dict)
    pragma_once: bool = False


class Model:
    """Whole-program index consumed by the passes."""

    def __init__(self, frontend: str, root: pathlib.Path):
        self.frontend = frontend
        self.root = root
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.files: dict[str, FileInfo] = {}

    # -- construction ------------------------------------------------------

    def add_function(self, fn: FunctionInfo) -> None:
        # Re-parsing the same header from several TUs re-discovers the same
        # inline definitions; keep the first (they are identical text).
        key = f"{fn.qname}@{fn.file}:{fn.line}"
        if key in self.functions:
            return
        self.functions[key] = fn
        self.by_name.setdefault(fn.name, []).append(fn)

    def add_file(self, info: FileInfo) -> None:
        if info.path not in self.files:
            self.files[info.path] = info

    # -- queries -----------------------------------------------------------

    def resolve_callees(self, call_name: str) -> list[FunctionInfo]:
        """Resolve a call-site spelling to candidate definitions.

        Exact qualified-suffix match wins; otherwise fall back to the plain
        last component. Over-approximates for overloads/shared method names,
        which is the right direction for a determinism gate (may report a
        spurious path, never silently misses one).
        """
        last = call_name.rsplit("::", 1)[-1]
        candidates = self.by_name.get(last, [])
        if "::" in call_name:
            exact = [f for f in candidates
                     if f.qname == call_name or f.qname.endswith("::" + call_name)]
            if exact:
                return exact
        return candidates

    def iter_functions(self) -> Iterable[FunctionInfo]:
        return self.functions.values()

    def suppressed(self, path: str, line: int, check: str) -> bool:
        info = self.files.get(path)
        if not info:
            return False
        rules = info.suppressions.get(line, set())
        return check in rules or "all" in rules


def rel_posix(path: str | pathlib.Path, root: pathlib.Path) -> str | None:
    """Repo-relative posix path, or None for files outside the repo."""
    try:
        return pathlib.Path(path).resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return None
