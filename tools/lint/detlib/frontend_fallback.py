"""Pure-stdlib C++ model extractor (no libclang required).

Parses every covered file with a tokenizer plus a brace/paren-tracking scope
machine. It is an approximation of the AST — callees are resolved by name,
container types come from a per-file declaration table — but it is built from
the same compile_commands.json closure as the libclang frontend and produces
the same Model, so the passes (and their fixture self-tests) are identical
across frontends.

Known approximations, chosen to over-report rather than under-report:
  * method calls resolve by last name component (every same-named method is
    a candidate callee);
  * a variable declared with an unordered container type anywhere in a file
    marks that name unordered file-wide;
  * `using X = std::unordered_map<...>` aliases are tracked per file, not
    across files.
"""

from __future__ import annotations

import pathlib
import re

from . import compdb
from .model import (CallSite, ConstructUse, FileInfo, FunctionInfo,
                    IncludeEdge, IterSite, Model, rel_posix)

# --------------------------------------------------------------------------
# Scrubbing and suppression collection (line structure preserved).

ALLOW_RE = re.compile(r"iri-det:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def collect_suppressions(lines: list[str]) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        out.setdefault(i, set()).update(rules)
        # A comment-only `iri-det: allow(...)` line suppresses the next line,
        # so long explanations don't have to share the offending line.
        if line.split("//", 1)[0].strip() == "":
            out.setdefault(i + 1, set()).update(rules)
    return out


def scrub(text: str) -> str:
    """Blanks comments, string and char literals, preserving newlines."""

    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r'R"([^(\s]*)\((?:.|\n)*?\)\1"', blank, text)
    text = re.sub(r"/\*(?:.|\n)*?\*/", blank, text)
    text = re.sub(r"//[^\n]*", blank, text)
    text = re.sub(r'"(?:[^"\\\n]|\\.)*"', blank, text)
    text = re.sub(r"'(?:[^'\\\n]|\\.)*'", blank, text)
    return text


# --------------------------------------------------------------------------
# Construct patterns (line-level, applied to scrubbed text, attributed to the
# enclosing function afterwards).

# `(?<![\w:])(?:std::)?name` takes the C library call bare or as std::name,
# but not a same-named member or another namespace's function.
CONSTRUCT_PATTERNS: list[tuple[str, re.Pattern, str]] = [
    ("wallclock", re.compile(
        r"\bstd::chrono::(?:system|steady|high_resolution)_clock\b"),
     "std::chrono clock"),
    ("wallclock", re.compile(
        r"(?<![\w:])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0|&)"), "time()"),
    ("wallclock", re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    ("wallclock", re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    ("wallclock", re.compile(r"(?<![\w:])(?:std::)?clock\s*\(\s*\)"),
     "clock()"),
    ("wallclock", re.compile(
        r"(?<![\w:])(?:std::)?(?:localtime|gmtime)(?:_r)?\s*\("),
     "localtime()/gmtime()"),
    ("rng", re.compile(r"\bstd::random_device\b"), "std::random_device"),
    ("rng", re.compile(r"\bstd::mt19937(?:_64)?\b"), "std::mt19937"),
    ("rng", re.compile(r"\bstd::(?:default_random_engine|minstd_rand0?|"
                       r"ranlux\w+|knuth_b)\b"), "std <random> engine"),
    ("rng", re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\("), "rand()/srand()"),
    ("rng", re.compile(r"(?<![\w:])d?random\s*\("), "random()/drandom()"),
    ("rng", re.compile(r"(?<![\w:])[ed]rand48\s*\("), "*rand48()"),
    ("rng", re.compile(r"#\s*include\s*<random>"), "<random>"),
    ("thread", re.compile(r"\bstd::(?:jthread|thread)\b"),
     "std::thread/std::jthread"),
    ("thread", re.compile(r"\bstd::async\b"), "std::async"),
    ("thread", re.compile(r"\bstd::(?:recursive_|timed_|shared_)?mutex\b"),
     "std::*mutex"),
    ("thread", re.compile(r"\bstd::condition_variable(?:_any)?\b"),
     "std::condition_variable"),
    ("thread", re.compile(r"\bstd::(?:counting_|binary_)?semaphore\b"),
     "std::semaphore"),
    ("thread", re.compile(r"#\s*include\s*<(?:thread|future|mutex|"
                          r"shared_mutex|condition_variable|stop_token|"
                          r"semaphore|barrier|latch)>"), "threading header"),
    ("atomic", re.compile(r"\bstd::atomic(?:_ref|_flag)?\b"), "std::atomic"),
    ("atomic", re.compile(r"#\s*include\s*<atomic>"), "<atomic>"),
]

INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

UNORDERED_TYPE_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b")
# `using Alias = std::unordered_map<...>;` / `typedef std::unordered_set<..> A;`
USING_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std\s*::\s*unordered_(?:map|set|multimap|multiset)\b")
TYPEDEF_ALIAS_RE = re.compile(
    r"\btypedef\s+std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r"[^;]*>\s*(\w+)\s*;")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "new", "delete", "throw", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "decltype", "noexcept", "static_assert", "assert",
    "defined", "co_await", "co_yield", "co_return", "requires", "alignas",
    "typeid", "else", "do", "case", "default",
}
CLASS_KEYWORDS = {"class", "struct", "union", "enum"}
NOT_FUNCTION_STARTERS = {"if", "for", "while", "switch", "catch", "do",
                         "else", "try"}

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|->|.")


class _Scope:
    __slots__ = ("kind", "name", "fn")

    def __init__(self, kind: str, name: str = "", fn: FunctionInfo | None = None):
        self.kind = kind  # namespace | class | function | block
        self.name = name
        self.fn = fn


def _tokenize(scrubbed: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    for line_no, line in enumerate(scrubbed.splitlines(), start=1):
        for tok in TOKEN_RE.findall(line):
            if not tok.strip():
                continue
            tokens.append((tok, line_no))
    return tokens


def _qualified_name_before(tokens: list[tuple[str, int]], idx: int) -> str:
    """Walk back from tokens[idx] (exclusive) collecting `a::b::c` / `~Dtor`."""
    parts: list[str] = []
    i = idx - 1
    expect_name = True
    while i >= 0:
        tok = tokens[i][0]
        if expect_name and (tok.isidentifier() or tok == "~"):
            parts.append(tok)
            expect_name = False
            i -= 1
        elif not expect_name and tok == "::":
            parts.append(tok)
            expect_name = True
            i -= 1
        elif not expect_name and tok == "~":
            parts.append(tok)
            i -= 1
            break
        else:
            break
    if not parts:
        return ""
    return "".join(reversed(parts)).lstrip(":")


def _find_matching(tokens: list[tuple[str, int]], open_idx: int,
                   open_tok: str, close_tok: str) -> int:
    depth = 0
    for i in range(open_idx, len(tokens)):
        tok = tokens[i][0]
        if tok == open_tok:
            depth += 1
        elif tok == close_tok:
            depth -= 1
            if depth == 0:
                return i
    return len(tokens) - 1


def _is_ctor_init_brace(tokens: list[tuple[str, int]], stmt_start: int,
                        idx: int) -> bool:
    """True when tokens[idx] == '{' brace-initializes a member in a
    constructor initializer list (`Foo::Foo() : a_{}, b_{1} {`). Those braces
    are expressions: swallowing them keeps the pending function header
    intact so the real body brace still classifies as a definition."""
    if idx <= stmt_start:
        return False
    prev = tokens[idx - 1][0]
    if not prev.isidentifier():
        return False
    depth = 0
    saw_paren_close = False
    colon_after_params = False
    for t, _ in tokens[stmt_start:idx]:
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                saw_paren_close = True
        elif t == ":" and depth == 0 and saw_paren_close:
            # `::` is a single token, so a bare ':' here really is the
            # initializer-list colon.
            colon_after_params = True
    return colon_after_params


class FileParser:
    """Parses one file into FunctionInfo records + a FileInfo.

    `extra_unordered` carries the program-wide table of names declared with
    unordered container types: members are declared in headers but iterated
    in .cc files, so the table must span files (build_model's first phase
    collects it across the whole covered set).
    """

    def __init__(self, rel: str, text: str,
                 extra_unordered: set[str] | None = None):
        self.rel = rel
        self.raw_lines = text.splitlines()
        self.scrubbed = scrub(text)
        self.scrubbed_lines = self.scrubbed.splitlines()
        self.info = FileInfo(
            path=rel, suppressions=collect_suppressions(self.raw_lines),
            pragma_once=any(map(PRAGMA_ONCE_RE.match, self.raw_lines)))
        self.functions: list[FunctionInfo] = []
        # Names from the program-wide table (headers declare, .cc iterates).
        self.global_unordered: set[str] = set(extra_unordered or ())
        # Names declared with an unordered type in *this* file.
        self.unordered_names: set[str] = set()
        self.unordered_aliases: set[str] = set()
        # Names declared with an *ordered* associative type in this file:
        # they override the global table, so `std::map<...> counts_` here is
        # not polluted by an unrelated unordered `counts_` elsewhere.
        self.ordered_names: set[str] = set()

    # -- includes ----------------------------------------------------------

    def _collect_includes(self) -> None:
        for line_no, line in enumerate(self.raw_lines, start=1):
            m = INCLUDE_RE.search(line)
            if m:
                self.info.includes.append(IncludeEdge(m.group(1), line_no))

    # -- declaration table -------------------------------------------------

    @staticmethod
    def _decl_re(type_patterns: list[str]) -> re.Pattern:
        return re.compile(
            r"\b(?:" + "|".join(type_patterns) + r")\b"
            r"(?:\s*<[^;{}]*?>)?"       # template args (no nested braces)
            r"[\s&*]+(\w+)\s*[;={(,)]")

    def _collect_unordered_names(self) -> None:
        text = self.scrubbed
        for m in USING_ALIAS_RE.finditer(text):
            self.unordered_aliases.add(m.group(1))
        for m in TYPEDEF_ALIAS_RE.finditer(text):
            self.unordered_aliases.add(m.group(1))
        unordered = [r"std\s*::\s*unordered_(?:map|set|multimap|multiset)"]
        unordered += [re.escape(a) for a in sorted(
            self.unordered_aliases | self.global_unordered)]
        for m in self._decl_re(unordered).finditer(text):
            name = m.group(1)
            if name not in KEYWORDS:
                self.unordered_names.add(name)
        ordered = [r"std\s*::\s*(?:map|set|multimap|multiset|flat_map|"
                   r"flat_set)"]
        for m in self._decl_re(ordered).finditer(text):
            name = m.group(1)
            if name not in KEYWORDS:
                self.ordered_names.add(name)

    def _effective_unordered(self) -> set[str]:
        local = self.unordered_names | self.unordered_aliases
        return local | (self.global_unordered - self.ordered_names)

    def _is_unordered_expr(self, expr_tokens: list[str]) -> bool:
        text = " ".join(expr_tokens)
        if "unordered_" in text:
            return True
        effective = self._effective_unordered()
        for tok in expr_tokens:
            if tok.isidentifier() and tok in effective:
                return True
        return False

    # -- main token walk ---------------------------------------------------

    def parse(self) -> None:
        self._collect_includes()
        self._collect_unordered_names()
        tokens = _tokenize(self.scrubbed)
        scopes: list[_Scope] = []
        stmt_start = 0  # index of first token of the current statement

        def current_fn() -> FunctionInfo | None:
            for scope in reversed(scopes):
                if scope.kind == "function":
                    return scope.fn
            return None

        def namespace_prefix() -> str:
            parts = [s.name for s in scopes
                     if s.kind in ("namespace", "class") and s.name]
            return "::".join(parts)

        i = 0
        n = len(tokens)
        while i < n:
            tok, line = tokens[i]

            if tok == "{":
                if (current_fn() is None
                        and _is_ctor_init_brace(tokens, stmt_start, i)):
                    i = _find_matching(tokens, i, "{", "}") + 1
                    continue  # statement (the ctor header) continues
                scopes.append(self._classify_brace(
                    tokens, stmt_start, i, current_fn(), namespace_prefix()))
                stmt_start = i + 1
            elif tok == "}":
                if scopes:
                    closed = scopes.pop()
                    if closed.kind == "function" and closed.fn is not None:
                        closed.fn.end_line = line
                        self.functions.append(closed.fn)
                stmt_start = i + 1
            elif tok == ";":
                stmt_start = i + 1
            elif tok == "(":
                fn = current_fn()
                if fn is not None:
                    callee = _qualified_name_before(tokens, i)
                    base = callee.rsplit("::", 1)[-1].lstrip("~")
                    if (callee and base not in KEYWORDS
                            and base not in CLASS_KEYWORDS):
                        fn.calls.append(CallSite(callee, line))
            elif tok == "for":
                fn = current_fn()
                # range-for: for ( decl : expr )
                if fn is not None and i + 1 < n and tokens[i + 1][0] == "(":
                    close = _find_matching(tokens, i + 1, "(", ")")
                    self._scan_range_for(tokens, i + 1, close, fn)
            i += 1

        # Attribute construct uses (line-level regexes) to enclosing spans.
        self._attribute_constructs()

    def _classify_brace(self, tokens: list[tuple[str, int]], stmt_start: int,
                        brace_idx: int, enclosing_fn: FunctionInfo | None,
                        prefix: str) -> _Scope:
        stmt = tokens[stmt_start:brace_idx]
        words = [t for t, _ in stmt]

        # namespace Foo {  /  namespace {
        if "namespace" in words:
            ns_idx = words.index("namespace")
            # C++17 nested form: `namespace iri::obs {`.
            parts: list[str] = []
            j = ns_idx + 1
            while j < len(words) and (words[j].isidentifier()
                                      or words[j] == "::"):
                if words[j].isidentifier():
                    parts.append(words[j])
                j += 1
            return _Scope("namespace", "::".join(parts))

        # class/struct/enum at paren depth 0 (not a parameter declaration).
        depth = 0
        class_name = ""
        saw_class_kw = False
        saw_paren_group = False
        for idx, (t, _) in enumerate(stmt):
            if t == "(":
                depth += 1
                saw_paren_group = True
            elif t == ")":
                depth -= 1
            elif depth == 0 and t in CLASS_KEYWORDS and not saw_paren_group:
                saw_class_kw = True
                j = idx + 1
                # skip `class`, attributes, `enum class`, alignas(...)
                while j < len(stmt) and stmt[j][0] in CLASS_KEYWORDS:
                    j += 1
                if j < len(stmt) and stmt[j][0].isidentifier():
                    class_name = stmt[j][0]
        if saw_class_kw and "=" not in words:
            return _Scope("class", class_name)

        if enclosing_fn is not None:
            return _Scope("block")

        # Function definition? Find the parameter-list paren at depth 0.
        if words and words[0] in NOT_FUNCTION_STARTERS:
            return _Scope("block")
        depth = 0
        eq_seen = False
        name = ""
        name_line = tokens[stmt_start][1] if stmt else tokens[brace_idx][1]
        for idx, (t, ln) in enumerate(stmt):
            if t == "=" and depth == 0:
                # Plain assignment only: `==`, `!=`, `<=`, `>=` (and the
                # second '=' of '==') must not veto e.g. operator== bodies.
                prev_t = stmt[idx - 1][0] if idx > 0 else ""
                next_t = stmt[idx + 1][0] if idx + 1 < len(stmt) else ""
                if (prev_t not in "=!<>" and next_t != "="
                        and prev_t != "operator"):
                    eq_seen = True
            elif t == "(":
                if depth == 0 and not eq_seen and not name:
                    cand = _qualified_name_before(stmt, idx)
                    base = cand.rsplit("::", 1)[-1].lstrip("~")
                    if cand and base not in KEYWORDS:
                        name = cand
                        name_line = ln
                depth += 1
            elif t == ")":
                depth -= 1
            elif t == "operator" and depth == 0 and not name:
                name = "operator"
                name_line = ln
        if name and not eq_seen:
            qname = f"{prefix}::{name}" if prefix and "::" not in name else (
                f"{prefix}::{name}" if prefix else name)
            fn = FunctionInfo(
                qname=qname,
                name=name.rsplit("::", 1)[-1].lstrip("~"),
                file=self.rel, line=name_line)
            return _Scope("function", fn.name, fn)
        return _Scope("block")

    def _scan_range_for(self, tokens: list[tuple[str, int]], open_idx: int,
                        close_idx: int, fn: FunctionInfo) -> None:
        """Detect `for (decl : expr)` with an unordered `expr`."""
        inner = tokens[open_idx + 1:close_idx]
        depth = 0
        colon_at = -1
        for idx, (t, _) in enumerate(inner):
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
            elif t == ":" and depth == 0:
                # `::` arrives as its own token, so a bare ":" is range-for.
                colon_at = idx
                break
            elif t == ";" and depth == 0:
                return  # classic three-clause for
        if colon_at < 0:
            return
        expr_tokens = [t for t, _ in inner[colon_at + 1:]]
        if self._is_unordered_expr(expr_tokens):
            line = inner[colon_at][1] if inner else tokens[open_idx][1]
            fn.unordered_iters.append(
                IterSite(" ".join(expr_tokens)[:80], line))

    def _attribute_constructs(self) -> None:
        spans = sorted(((f.line, f.end_line or f.line, f)
                        for f in self.functions), key=lambda s: (s[0], -s[1]))

        def owner(line: int) -> FunctionInfo | None:
            best: FunctionInfo | None = None
            best_len = None
            for start, end, fn in spans:
                if start <= line <= end:
                    length = end - start
                    if best_len is None or length <= best_len:
                        best, best_len = fn, length
            return best

        for line_no, line in enumerate(self.scrubbed_lines, start=1):
            for kind, pattern, detail in CONSTRUCT_PATTERNS:
                if pattern.search(line):
                    use = ConstructUse(kind, detail, line_no)
                    fn = owner(line_no)
                    if fn is not None:
                        fn.constructs.append(use)
                    else:
                        self.info.constructs.append(use)

        # Iterator-based unordered loops: name.begin()/cbegin() on a known
        # unordered container, inside a function.
        iter_re = None
        effective = self._effective_unordered()
        if effective:
            names = "|".join(re.escape(x) for x in sorted(effective))
            iter_re = re.compile(r"\b(" + names + r")\s*\.\s*c?begin\s*\(")
        if iter_re:
            for line_no, line in enumerate(self.scrubbed_lines, start=1):
                m = iter_re.search(line)
                if m:
                    fn = owner(line_no)
                    if fn is not None:
                        fn.unordered_iters.append(
                            IterSite(m.group(1) + ".begin()", line_no))


# --------------------------------------------------------------------------


def build_model(compdb_path: pathlib.Path, root: pathlib.Path) -> Model:
    """Build a Model for the compile_commands closure."""
    model = Model(frontend="fallback", root=root)
    covered = compdb.covered_files(compdb_path, root)
    texts: list[tuple[str, str]] = []
    for path in sorted(covered):
        rel = rel_posix(path, root)
        if rel is None:
            continue
        try:
            texts.append((rel, path.read_text(encoding="utf-8",
                                              errors="replace")))
        except OSError:
            continue
    # Phase 1: program-wide unordered-name table (members live in headers,
    # iteration happens in .cc files).
    global_unordered: set[str] = set()
    for rel, text in texts:
        probe = FileParser(rel, text)
        probe._collect_unordered_names()
        global_unordered |= probe.unordered_names | probe.unordered_aliases
    # Phase 2: full parse with the shared table.
    for rel, text in texts:
        parser = FileParser(rel, text, extra_unordered=global_unordered)
        parser.parse()
        model.add_file(parser.info)
        for fn in parser.functions:
            model.add_function(fn)
    return model
