"""compile_commands.json loading and coverage computation.

The analyzer is compilation-database driven: the set of files it verifies is
exactly the translation units CMake builds plus the repo headers they reach
through quoted includes. A first-party source outside that closure is itself
a finding (not-analyzed): nothing else would check it.
"""

from __future__ import annotations

import json
import pathlib
import re
import shlex

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

SOURCE_SUFFIXES = {".cc", ".cpp", ".cxx", ".c"}
TREE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}


class CompDbError(RuntimeError):
    pass


def load_entries(compdb_path: pathlib.Path) -> list[dict]:
    try:
        entries = json.loads(compdb_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise CompDbError(f"cannot read {compdb_path}: {err}") from err
    if not isinstance(entries, list):
        raise CompDbError(f"{compdb_path}: expected a JSON array")
    return entries


def entry_file(entry: dict) -> pathlib.Path:
    path = pathlib.Path(entry["file"])
    if not path.is_absolute():
        path = pathlib.Path(entry.get("directory", ".")) / path
    return path.resolve()


def entry_args(entry: dict) -> list[str]:
    if "arguments" in entry:
        return list(entry["arguments"])
    return shlex.split(entry.get("command", ""))


def tu_sources(compdb_path: pathlib.Path, root: pathlib.Path) -> list[pathlib.Path]:
    """Translation-unit sources inside the repo, deduplicated, sorted."""
    seen: set[pathlib.Path] = set()
    for entry in load_entries(compdb_path):
        path = entry_file(entry)
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        try:
            path.relative_to(root.resolve())
        except ValueError:
            continue
        seen.add(path)
    return sorted(seen)


def _quoted_includes(path: pathlib.Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    return INCLUDE_RE.findall(text)


def covered_files(compdb_path: pathlib.Path, root: pathlib.Path,
                  include_dirs: list[pathlib.Path] | None = None
                  ) -> set[pathlib.Path]:
    """TU sources plus the transitive closure of their quoted includes.

    Quoted includes resolve against the repo's convention: relative to src/
    (the single include_directories root) or to the including file's own
    directory. Returns absolute resolved paths.
    """
    root = root.resolve()
    if include_dirs is None:
        include_dirs = [root / "src"]
    work = list(tu_sources(compdb_path, root))
    covered: set[pathlib.Path] = set()
    while work:
        path = work.pop()
        if path in covered or not path.is_file():
            continue
        covered.add(path)
        for target in _quoted_includes(path):
            for base in [path.parent, *include_dirs]:
                candidate = (base / target).resolve()
                if candidate.is_file():
                    if candidate not in covered:
                        work.append(candidate)
                    break
    return covered


def tree_sources(root: pathlib.Path, prefixes: tuple) -> list[str]:
    """Repo-relative C++ sources and headers under the given top-level
    directories (e.g. "src/"), sorted."""
    out = []
    for prefix in prefixes:
        base = root / prefix
        if base.is_dir():
            out += [p.relative_to(root).as_posix() for p in base.rglob("*")
                    if p.suffix in TREE_SUFFIXES]
    return sorted(out)


def find_compdb(root: pathlib.Path,
                explicit: pathlib.Path | None = None) -> pathlib.Path | None:
    """Locate compile_commands.json: explicit path, then build/, then root."""
    if explicit:
        return explicit if explicit.is_file() else None
    for candidate in (root / "build" / "compile_commands.json",
                      root / "compile_commands.json"):
        if candidate.is_file():
            return candidate
    return None
