"""libclang AST frontend (exact types, resolved callees).

Used when the clang python bindings and a libclang shared library are
available — the CI static-analysis job installs them; developer machines
without libclang transparently use frontend_fallback instead. Produces the
same Model as the fallback, with two precision upgrades:

  * call sites carry the fully qualified name of the *referenced*
    declaration (no name-based over-approximation);
  * range-for loops are classified by the canonical type of the range
    expression, so typedefs/aliases/auto cannot hide an unordered container.

Import of this module never fails; call available() before build_model().
"""

from __future__ import annotations

import pathlib

from . import compdb
from .model import (CallSite, ConstructUse, FileInfo, FunctionInfo,
                    IncludeEdge, IterSite, Model, rel_posix)
from .frontend_fallback import (INCLUDE_RE, PRAGMA_ONCE_RE,
                                collect_suppressions)

try:  # pragma: no cover - exercised only where libclang is installed
    import clang.cindex as cindex
    _IMPORT_ERROR: Exception | None = None
except Exception as err:  # ModuleNotFoundError or LibclangError
    cindex = None
    _IMPORT_ERROR = err


def available() -> bool:
    if cindex is None:
        return False
    try:
        cindex.Index.create()
        return True
    except Exception:
        return False


def import_error() -> str:
    return str(_IMPORT_ERROR) if _IMPORT_ERROR else ""


# Flags the clang parser chokes on when the database was generated by gcc.
_DROP_ARGS = {"-fno-canonical-system-headers", "-mno-avx256-split-unaligned-load",
              "-mno-avx256-split-unaligned-store"}

_UNORDERED_TYPES = ("unordered_map", "unordered_set", "unordered_multimap",
                    "unordered_multiset")

_WALLCLOCK_TYPES = ("std::chrono::system_clock", "std::chrono::steady_clock",
                    "std::chrono::high_resolution_clock")
# WallClockNanos() is a call site, not a raw read: only wall-clock-taint
# (DetConfig.source_call_names) governs it.
_WALLCLOCK_CALLS = {"gettimeofday", "clock_gettime", "clock", "time",
                    "localtime", "gmtime", "localtime_r", "gmtime_r"}
_RNG_TYPES = ("std::mersenne_twister_engine", "std::mt19937",
              "std::random_device", "std::linear_congruential_engine",
              "std::default_random_engine", "std::subtract_with_carry_engine")
_RNG_CALLS = {"rand", "srand", "random", "drand48", "erand48", "lrand48"}
_THREAD_TYPES = ("std::thread", "std::jthread", "std::mutex",
                 "std::recursive_mutex", "std::timed_mutex",
                 "std::shared_mutex", "std::condition_variable",
                 "std::counting_semaphore", "std::binary_semaphore",
                 "std::future", "std::promise", "std::packaged_task")
_THREAD_CALLS = {"async"}
_ATOMIC_TYPES = ("std::atomic",)


def _qualified_name(cursor) -> str:
    parts = []
    c = cursor
    while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def _type_spellings(t) -> list[str]:
    out = [t.spelling]
    try:
        canonical = t.get_canonical().spelling
        if canonical != t.spelling:
            out.append(canonical)
    except Exception:
        pass
    return out


def _classify_type(t) -> tuple[str, str] | None:
    for spelling in _type_spellings(t):
        for needle in _UNORDERED_TYPES:
            if needle in spelling:
                return ("unordered", needle)
        for needle in _WALLCLOCK_TYPES:
            if needle in spelling:
                return ("wallclock", needle)
        for needle in _RNG_TYPES:
            if needle in spelling:
                return ("rng", needle.split("::")[-1])
        for needle in _THREAD_TYPES:
            if needle in spelling:
                return ("thread", needle)
        for needle in _ATOMIC_TYPES:
            if needle in spelling:
                return ("atomic", "std::atomic")
    return None


_FUNCTION_KINDS = None


def _function_kinds():
    global _FUNCTION_KINDS
    if _FUNCTION_KINDS is None:
        ck = cindex.CursorKind
        _FUNCTION_KINDS = {ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                           ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE,
                           ck.CONVERSION_FUNCTION}
    return _FUNCTION_KINDS


def _visit_body(cursor, fn: FunctionInfo) -> None:
    ck = cindex.CursorKind
    for child in cursor.get_children():
        kind = child.kind
        line = child.location.line or fn.line
        if kind == ck.CALL_EXPR:
            ref = child.referenced
            name = _qualified_name(ref) if ref is not None else child.spelling
            base = (name or "").rsplit("::", 1)[-1]
            if name:
                fn.calls.append(CallSite(name, line))
            # The C library or std function, like the fallback's
            # `(?:std::)?name`: not a first-party member sharing its name.
            library = (name or "").split("::", 1)[0] in ("std", base)
            if library and base in _WALLCLOCK_CALLS:
                fn.constructs.append(
                    ConstructUse("wallclock", f"{base}()", line))
            elif library and base in _RNG_CALLS:
                fn.constructs.append(ConstructUse("rng", f"{base}()", line))
            elif library and base in _THREAD_CALLS:
                fn.constructs.append(
                    ConstructUse("thread", f"std::{base}", line))
        elif kind == ck.CXX_FOR_RANGE_STMT:
            children = list(child.get_children())
            # Layout: [optional init,] range-decl, range-expr, body.
            range_expr = None
            for sub in children:
                if sub.kind not in (ck.VAR_DECL, ck.DECL_STMT):
                    range_expr = sub
                    break
            if range_expr is not None:
                cls = _classify_type(range_expr.type)
                if cls and cls[0] == "unordered":
                    fn.unordered_iters.append(
                        IterSite(range_expr.type.spelling[:80],
                                 range_expr.location.line or line))
        elif kind == ck.VAR_DECL:
            cls = _classify_type(child.type)
            if cls and cls[0] != "unordered":
                fn.constructs.append(ConstructUse(cls[0], cls[1], line))
        _visit_body(child, fn)


def _visit_tu(cursor, root: pathlib.Path, model: Model,
              covered: set[pathlib.Path]) -> None:
    ck = cindex.CursorKind
    for child in cursor.get_children():
        loc_file = child.location.file
        if loc_file is None:
            continue
        path = pathlib.Path(str(loc_file))
        if path.resolve() not in covered:
            continue
        if child.kind in _function_kinds() and child.is_definition():
            rel = rel_posix(path, root)
            if rel is None:
                continue
            fn = FunctionInfo(
                qname=_qualified_name(child),
                name=child.spelling,
                file=rel,
                line=child.location.line,
                end_line=child.extent.end.line)
            _visit_body(child, fn)
            model.add_function(fn)
        elif child.kind in (ck.NAMESPACE, ck.CLASS_DECL, ck.STRUCT_DECL,
                            ck.CLASS_TEMPLATE, ck.LINKAGE_SPEC,
                            ck.UNEXPOSED_DECL):
            _visit_tu(child, root, model, covered)
        elif child.kind == ck.VAR_DECL:
            rel = rel_posix(path, root)
            if rel is None:
                continue
            cls = _classify_type(child.type)
            if cls and cls[0] != "unordered":
                info = model.files.get(rel)
                if info is not None:
                    info.constructs.append(
                        ConstructUse(cls[0], cls[1], child.location.line))


def _file_info(path: pathlib.Path, rel: str) -> FileInfo:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        text = ""
    lines = text.splitlines()
    info = FileInfo(path=rel, suppressions=collect_suppressions(lines),
                    pragma_once=any(map(PRAGMA_ONCE_RE.match, lines)))
    for line_no, line in enumerate(lines, start=1):
        m = INCLUDE_RE.search(line)
        if m:
            info.includes.append(IncludeEdge(m.group(1), line_no))
        for header, kind in (("<random>", "rng"), ("<thread>", "thread"),
                             ("<future>", "thread"), ("<mutex>", "thread"),
                             ("<shared_mutex>", "thread"),
                             ("<condition_variable>", "thread"),
                             ("<semaphore>", "thread"), ("<atomic>", "atomic")):
            if line.lstrip().startswith("#") and header in line \
                    and "include" in line:
                info.constructs.append(
                    ConstructUse(kind, header, line_no))
    return info


def build_model(compdb_path: pathlib.Path, root: pathlib.Path) -> Model:
    if not available():  # pragma: no cover
        raise RuntimeError(f"libclang unavailable: {import_error()}")
    model = Model(frontend="clang", root=root)
    covered = compdb.covered_files(compdb_path, root)
    for path in sorted(covered):
        rel = rel_posix(path, root)
        if rel is not None:
            model.add_file(_file_info(path, rel))

    index = cindex.Index.create()
    for entry in compdb.load_entries(compdb_path):
        src = compdb.entry_file(entry)
        if src.suffix not in compdb.SOURCE_SUFFIXES or src.resolve() not in covered:
            continue
        args = []
        skip_next = False
        for arg in compdb.entry_args(entry)[1:]:
            if skip_next:
                skip_next = False
                continue
            if arg in ("-c", "-o"):
                skip_next = arg == "-o"
                continue
            if arg in _DROP_ARGS or arg == str(src) or arg.endswith(src.name):
                continue
            args.append(arg)
        try:
            tu = index.parse(str(src), args=args)
        except cindex.TranslationUnitLoadError:
            continue
        _visit_tu(tu.cursor, root, model, covered)
    return model
