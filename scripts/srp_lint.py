#!/usr/bin/env python3
"""srp-lint: project-specific invariant passes for the Sirpent tree.

Four passes over the C++ sources, each enforcing a contract that generic
linters cannot know about (DESIGN.md section 9):

  determinism     Simulation-visible code must be bit-reproducible: no
                  wall-clock reads, no ambient randomness, no iteration
                  over unordered containers (lookups are fine), no
                  hashing of pointer values.  Exemption: wrap the
                  statement in SRP_ORDER_OK(...) or precede it with an
                  `// SRP_ORDER_OK(reason)` comment (e.g. when the
                  iteration feeds a sort).  src/check/ is excluded from
                  these rules: the contract infrastructure is diagnostic
                  machinery, not simulation-visible state.
                  The pass also bans threads: no std::thread,
                  std::jthread, std::async or pthread_create anywhere,
                  src/check/ included, and no exemption.  The simulator
                  is single-threaded by construction, and this rule is
                  what keeps its state lock-free.  For the same reason
                  std::atomic is banned too: every counter, ring head
                  and handler slot is a plain integer or pointer.

  hotpath-alloc   Functions marked SRP_HOT_PATH (check/analysis.hpp)
                  must not allocate in their own bodies: no new/malloc,
                  no make_shared/make_unique, no growing-container
                  calls, no wire::Writer construction.  Scheduling a
                  sim event is not flagged: the scheduler stores
                  captures up to 56 B inline, and whether a capture
                  fits is a type question this lexical scan cannot
                  answer (the runtime twin, tests/alloc_budget_test.cpp,
                  pins it).
                  Exemption: SRP_ALLOC_OK(expr) or a preceding
                  `// SRP_ALLOC_OK(reason)` comment, which blesses the
                  next statement.
                  The same bodies must not contain `try` or `catch`:
                  the data path never throws, so its decoders return a
                  value to test instead.  No exemption.  `throw` stays
                  legal: the encoders' >4 GiB field guards reject caller
                  misuse, not wire input.

  metric-names    Every name handed to stats::Registry counter(name,
                  source) / gauge() / histogram() must match the
                  `component.instance.metric` contract: 2..5 dot
                  separated segments of [A-Za-z0-9_-].  Runtime
                  fragments (variables, metric_component(...) calls)
                  count as exactly one segment, mirroring what
                  metric_component() guarantees at runtime.

  state-switch-default
                  A `switch` over a protocol state-machine enum (type
                  name ending in State, Result or Policy) must not have
                  a `default:` label: enumerate every enumerator so
                  that adding a state is a -Wswitch compile error
                  instead of silently falling into the default.  The
                  model checker (src/mc) explores exactly these
                  machines; a default arm is an unexplored transition.
                  Exemption: a preceding `// SRP_SWITCH_OK(reason)`
                  comment on the line before the switch.

The engine is a deliberate deviation from the original libclang plan:
this container carries no clang binaries and no libclang Python
bindings, and the repo rule is to never pip-install into CI.  The
passes therefore run on a comment/string-aware lexical scan.  That
trades some precision (member identity is name-based: a member ending
in `_` declared unordered anywhere in the tree is treated as unordered
everywhere) for zero dependencies — acceptable because the tree's
naming discipline is itself a checked convention.  When a
compile_commands.json is present (any build dir), the translation-unit
list is taken from it so generated/out-of-tree sources are covered.

Usage:
  python3 scripts/srp_lint.py                 # lint src/ (the default)
  python3 scripts/srp_lint.py --self-test     # run fixture self-checks
  python3 scripts/srp_lint.py path1 path2 ... # lint specific files/dirs
  python3 scripts/srp_lint.py --jobs 8        # parallel per-file scan
  python3 scripts/srp_lint.py --verbose       # per-pass wall times

Output is deterministic regardless of --jobs: findings sort on
(path, line, pass, message) and the cross-file stage (unordered-member
collection) always runs before the per-file scans, whose results are
merged in input order.

Exit codes: 0 clean, 1 findings, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CXX_SUFFIXES = (".cpp", ".cc", ".cxx", ".hpp", ".h")


# ---------------------------------------------------------------------------
# Source model: comment/string-aware scan
# ---------------------------------------------------------------------------

@dataclass
class SourceFile:
    """One parsed source file.

    `code` is the original text with comment bodies and string/char
    literal contents replaced by spaces (newlines preserved), so byte
    offsets and line numbers match the original.  Literal contents are
    kept separately for the metric-name pass; comment texts are kept
    for the SRP_*_OK comment exemptions.
    """

    path: str
    text: str
    code: str = ""
    # offset -> literal content, for each "..." string literal
    strings: Dict[int, str] = field(default_factory=dict)
    # line number (1-based) -> comment text, for comments on that line
    comments: Dict[int, str] = field(default_factory=dict)

    def line_of(self, offset: int) -> int:
        return self.text.count("\n", 0, offset) + 1


def parse_source(path: str, text: str) -> SourceFile:
    src = SourceFile(path=path, text=text)
    out: List[str] = []
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            out.append(c)
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            src.comments[line] = src.comments.get(line, "") + text[i:j]
            out.append("  " + " " * (j - i - 2))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            body = text[i:j]
            src.comments[line] = src.comments.get(line, "") + body
            for ch in body:
                out.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if quote == '"':
                src.strings[i] = text[i + 1 : j - 1]
            out.append(quote)
            for ch in text[i + 1 : j - 1]:
                out.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            if j - i >= 2:
                out.append(quote)
            i = j
        else:
            out.append(c)
            i += 1
    src.code = "".join(out)
    assert len(src.code) == len(text)
    return src


@dataclass
class Finding:
    pass_name: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.pass_name}] {self.message}"


def match_paren(code: str, open_index: int) -> int:
    """Index just past the parenthesis group opening at open_index."""
    depth = 0
    for i in range(open_index, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def match_brace(code: str, open_index: int) -> int:
    depth = 0
    for i in range(open_index, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def preprocessor_lines(code: str) -> Set[int]:
    """1-based line numbers occupied by preprocessor directives."""
    lines: Set[int] = set()
    for lineno, raw in enumerate(code.split("\n"), start=1):
        stripped = raw.lstrip()
        if stripped.startswith("#"):
            lines.add(lineno)
            # crude continuation handling
            j = lineno
            while raw.rstrip().endswith("\\"):
                j += 1
                lines.add(j)
                parts = code.split("\n")
                raw = parts[j - 1] if j - 1 < len(parts) else ""
    return lines


# ---------------------------------------------------------------------------
# Exemption bookkeeping (SRP_ALLOC_OK / SRP_ORDER_OK)
# ---------------------------------------------------------------------------

def macro_exempt_ranges(src: SourceFile, macro: str) -> List[Tuple[int, int]]:
    """Offset ranges covered by macro(...) wrappers."""
    ranges = []
    for m in re.finditer(rf"\b{macro}\s*\(", src.code):
        open_index = src.code.index("(", m.start())
        ranges.append((m.start(), match_paren(src.code, open_index)))
    return ranges


def comment_exempt_lines(src: SourceFile, macro: str) -> Set[int]:
    """Lines blessed by an `// MACRO(reason)` comment.

    The comment blesses from the following line through the end of the
    next statement: the first `;` at the brace depth where that
    statement starts (so a multi-line lambda argument stays covered).
    """
    blessed: Set[int] = set()
    line_starts = [0]
    for i, c in enumerate(src.code):
        if c == "\n":
            line_starts.append(i + 1)

    for comment_line, body in sorted(src.comments.items()):
        if macro not in body:
            continue
        start_line = comment_line + 1
        if start_line > len(line_starts):
            continue
        start = line_starts[start_line - 1]
        depth = 0
        end = len(src.code)
        started = False
        for i in range(start, len(src.code)):
            c = src.code[i]
            if not started and not c.isspace():
                started = True
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
            elif c == ";" and depth <= 0 and started:
                end = i
                break
        end_line = src.line_of(min(end, len(src.code) - 1)) if src.code else start_line
        blessed.update(range(start_line, end_line + 1))
    return blessed


def is_exempt(src: SourceFile, offset: int, macro: str,
              macro_ranges: List[Tuple[int, int]],
              comment_lines: Set[int]) -> bool:
    if any(a <= offset < b for a, b in macro_ranges):
        return True
    return src.line_of(offset) in comment_lines


# ---------------------------------------------------------------------------
# Pass 1: determinism
# ---------------------------------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"\b(?:std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|gettimeofday|clock_gettime|::time\s*\(|std::time\s*\("
    r"|localtime|gmtime)\b"
)
RANDOMNESS_RE = re.compile(
    r"\b(?:std::random_device|random_device\s*\{|\bsrand\s*\(|[^:\w]rand\s*\()"
)
POINTER_HASH_RE = re.compile(r"\bstd::hash\s*<[^>;{}]*\*")
UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(map|set)\s*<")
THREAD_RE = re.compile(
    r"\bstd::(?:thread|jthread|async)\b|\bpthread_create\s*\("
)
ATOMIC_RE = re.compile(r"\bstd::atomic\w*\b")


def collect_unordered_members(sources: Sequence[SourceFile]) -> Set[str]:
    """Names (ending in `_`) of members declared as unordered containers."""
    members: Set[str] = set()
    for src in sources:
        for m in UNORDERED_DECL_RE.finditer(src.code):
            open_angle = src.code.index("<", m.start())
            depth = 0
            i = open_angle
            while i < len(src.code):
                if src.code[i] == "<":
                    depth += 1
                elif src.code[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            tail = src.code[i + 1 : i + 200]
            name = re.match(r"\s*(\w+_)\b", tail)
            if name:
                members.add(name.group(1))
    return members


def pass_determinism(sources: Sequence[SourceFile],
                     unordered_members: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for src in sources:
        # Threads are banned everywhere, without exemption: no state in
        # the tree is guarded against a second thread.
        for m in THREAD_RE.finditer(src.code):
            findings.append(Finding(
                "determinism", src.path, src.line_of(m.start()),
                f"thread creation `{m.group(0).strip()}` — the simulator "
                "is single-threaded; nothing in it is locked"))
        for m in ATOMIC_RE.finditer(src.code):
            findings.append(Finding(
                "determinism", src.path, src.line_of(m.start()),
                f"`{m.group(0)}` — the simulator is single-threaded; use a "
                "plain integer or pointer"))
        rel = os.path.relpath(src.path, REPO_ROOT)
        if rel.startswith(os.path.join("src", "check") + os.sep):
            continue  # diagnostic infrastructure, not sim-visible
        pp = preprocessor_lines(src.code)
        order_ranges = macro_exempt_ranges(src, "SRP_ORDER_OK")
        order_lines = comment_exempt_lines(src, "SRP_ORDER_OK")

        def exempt(offset: int) -> bool:
            return (src.line_of(offset) in pp
                    or is_exempt(src, offset, "SRP_ORDER_OK", order_ranges,
                                 order_lines))

        for m in WALL_CLOCK_RE.finditer(src.code):
            if exempt(m.start()):
                continue
            findings.append(Finding(
                "determinism", src.path, src.line_of(m.start()),
                f"wall-clock read `{m.group(0).strip()}` — simulation time "
                "comes only from sim::Simulator"))
        for m in RANDOMNESS_RE.finditer(src.code):
            if exempt(m.start()):
                continue
            findings.append(Finding(
                "determinism", src.path, src.line_of(m.start()),
                f"ambient randomness `{m.group(0).strip()}` — use a seeded "
                "sim::Rng stream"))
        for m in POINTER_HASH_RE.finditer(src.code):
            if exempt(m.start()):
                continue
            findings.append(Finding(
                "determinism", src.path, src.line_of(m.start()),
                "std::hash over a pointer value — addresses vary across "
                "runs; hash a stable id instead"))
        # Pointer-keyed unordered containers iterate in address order.
        for m in UNORDERED_DECL_RE.finditer(src.code):
            open_angle = src.code.index("<", m.start())
            first_arg = src.code[open_angle + 1 :
                                 src.code.find(",", open_angle + 1)
                                 if "," in src.code[open_angle:open_angle + 120]
                                 else open_angle + 80]
            if "*" in first_arg.split("<")[0] and not exempt(m.start()):
                findings.append(Finding(
                    "determinism", src.path, src.line_of(m.start()),
                    "unordered container keyed by pointer — key by a "
                    "stable id, or use an ordered container"))

        # Iteration over unordered members: range-for and .begin().
        for member in unordered_members:
            for m in re.finditer(
                    rf"\bfor\s*\([^;()]*:\s*(?:\w+(?:\.|->))?{member}\s*\)",
                    src.code):
                if exempt(m.start()):
                    continue
                findings.append(Finding(
                    "determinism", src.path, src.line_of(m.start()),
                    f"iteration over unordered member `{member}` — bucket "
                    "order is not deterministic; iterate a sorted view or "
                    "annotate SRP_ORDER_OK with a reason"))
            for m in re.finditer(rf"\b{member}\s*\.\s*c?begin\s*\(", src.code):
                if exempt(m.start()):
                    continue
                findings.append(Finding(
                    "determinism", src.path, src.line_of(m.start()),
                    f"`{member}.begin()` on an unordered member — element "
                    "order is not deterministic; select by sorted key or "
                    "annotate SRP_ORDER_OK"))
    return findings


# ---------------------------------------------------------------------------
# Pass 2: hot-path allocation
# ---------------------------------------------------------------------------

ALLOC_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bnew\s*\("), "placement/operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("), "C allocation"),
    (re.compile(r"\bmake_(?:shared|unique)\s*<"), "make_shared/make_unique"),
    (re.compile(r"(?:\.|->)\s*(push_back|emplace_back|emplace|insert|resize"
                r"|reserve|append|assign)\s*\("), "growing-container call"),
    (re.compile(r"\bwire::Writer\b|\bWriter\s+\w+\s*\("),
     "wire::Writer construction"),
]
EXCEPTION_RE = re.compile(r"\btry\s*\{|\bcatch\s*\(")


@dataclass
class FunctionBody:
    path: str
    qualified_name: str
    start: int  # offset of opening brace
    end: int    # offset just past closing brace
    hot: bool


FUNC_SIG_RE = re.compile(
    r"(?:^|[;}{])\s*((?:[\w:<>,&*~\s]|::)*?)\b(\w+(?:::\w+)*)\s*\(",
    re.MULTILINE)


def extract_functions(src: SourceFile) -> List[FunctionBody]:
    """Find function definitions lexically.

    Walks `name(...)` groups at namespace/class scope and checks whether
    a `{` follows the parameter list (possibly after const/noexcept/
    -> T / attribute tails).  Control-flow keywords are filtered out.
    """
    out: List[FunctionBody] = []
    code = src.code
    keywords = {"if", "for", "while", "switch", "return", "catch", "sizeof",
                "defined", "alignof", "decltype", "static_assert", "assert"}
    i = 0
    while i < len(code):
        m = re.compile(r"\b([A-Za-z_]\w*(?:::[A-Za-z_~]\w*)*)\s*\(").search(
            code, i)
        if not m:
            break
        name = m.group(1)
        open_paren = code.index("(", m.end() - 1)
        after_params = match_paren(code, open_paren)
        if name.split("::")[-1] in keywords:
            i = after_params
            continue
        # Scan the tail for `{` (definition), `;` (declaration) or
        # something else (an expression call).
        j = after_params
        tail_ok = True
        while j < len(code):
            c = code[j]
            if c.isspace():
                j += 1
            elif code.startswith("const", j) or code.startswith("noexcept", j) \
                    or code.startswith("override", j) \
                    or code.startswith("final", j):
                j += 5 if c == "c" or code.startswith("final", j) else 8
            elif code.startswith("->", j):
                nxt = code.find("{", j)
                semi = code.find(";", j)
                if nxt < 0 or (0 <= semi < nxt):
                    tail_ok = False
                    break
                j = nxt
            elif c == "(":
                j = match_paren(code, j)
            elif c == ":":
                # constructor initializer list: skip to the brace
                nxt = code.find("{", j)
                semi = code.find(";", j)
                if nxt < 0 or (0 <= semi < nxt):
                    tail_ok = False
                    break
                j = nxt
            elif c == "{":
                break
            else:
                tail_ok = False
                break
        if not tail_ok or j >= len(code) or code[j] != "{":
            i = after_params
            continue
        end = match_brace(code, j)
        # Look back for SRP_HOT_PATH between the previous statement
        # boundary and the function name.
        lookback = code[max(0, m.start() - 400) : m.start()]
        boundary = max(lookback.rfind(";"), lookback.rfind("}"),
                       lookback.rfind("{"))
        window = lookback[boundary + 1 :]
        hot = "SRP_HOT_PATH" in window
        out.append(FunctionBody(
            path=src.path, qualified_name=name,
            start=j, end=end, hot=hot))
        i = after_params  # allow nested scans inside bodies (lambdas etc.)
    return out


def pass_hotpath_alloc(sources: Sequence[SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    for src in sources:
        funcs = [f for f in extract_functions(src) if f.hot]
        if not funcs:
            continue
        alloc_ranges = macro_exempt_ranges(src, "SRP_ALLOC_OK")
        alloc_lines = comment_exempt_lines(src, "SRP_ALLOC_OK")
        for fn in funcs:
            body = src.code[fn.start : fn.end]
            for pattern, what in ALLOC_PATTERNS:
                for m in pattern.finditer(body):
                    offset = fn.start + m.start()
                    if is_exempt(src, offset, "SRP_ALLOC_OK", alloc_ranges,
                                 alloc_lines):
                        continue
                    findings.append(Finding(
                        "hotpath-alloc", src.path, src.line_of(offset),
                        f"{what} `{m.group(0).strip()}` inside SRP_HOT_PATH "
                        f"function `{fn.qualified_name}` — hoist it out or "
                        "wrap in SRP_ALLOC_OK with a reason"))
            for m in EXCEPTION_RE.finditer(body):
                keyword = re.match(r"\w+", m.group(0)).group(0)
                findings.append(Finding(
                    "hotpath-alloc", src.path,
                    src.line_of(fn.start + m.start()),
                    f"`{keyword}` inside SRP_HOT_PATH function "
                    f"`{fn.qualified_name}` — the data path never throws; "
                    "test a returned value instead"))
    return findings


# ---------------------------------------------------------------------------
# Pass 3: metric names
# ---------------------------------------------------------------------------

METRIC_CALL_RE = re.compile(r"(?:\.|->)\s*(counter|gauge|histogram)\s*\(")
SEGMENT_RE = re.compile(r"[A-Za-z0-9_-]+")

# The component namespaces the tree exports (first metric-name segment).
# A registration under a component not listed here is either a typo or a
# new subsystem that must be added deliberately — extend this set (and
# the exporters' docs) in the same change that introduces the component.
KNOWN_COMPONENTS = frozenset((
    "cc",      # congestion control
    "fault",   # fault-injection engine
    "flow",    # flow accounting plane
    "health",  # health plane (monitor self-metrics)
    "host",    # end-host module
    "int",     # in-band path telemetry (obs::PathCollector)
    "port",    # per-port transmit stats
    "tokens",  # token cache / authority
    "viper",   # per-router forward path
    "vmtp",    # transport
))


def candidate_names(src: SourceFile, arg_start: int, arg_end: int) -> List[str]:
    """Expand the argument expression into candidate metric names.

    Splits a top-level ternary into its branches; within a branch,
    string literals contribute their text and any other top-level `+`
    operand contributes a placeholder single segment.
    """
    code = src.code
    # split on top-level ?: into branches
    branches: List[Tuple[int, int]] = []
    depth = 0
    q = -1
    for i in range(arg_start, arg_end):
        c = code[i]
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == "?" and depth == 0:
            q = i
        elif c == ":" and depth == 0 and q >= 0 and code[i - 1] != ":" and \
                (i + 1 >= len(code) or code[i + 1] != ":"):
            branches = [(q + 1, i), (i + 1, arg_end)]
            break
    if not branches:
        branches = [(arg_start, arg_end)]

    names = []
    for b_start, b_end in branches:
        parts: List[str] = []
        depth = 0
        seg_start = b_start
        spans: List[Tuple[int, int]] = []
        for i in range(b_start, b_end):
            c = code[i]
            if c in "(<[":
                depth += 1
            elif c in ")>]":
                depth -= 1
            elif c == "+" and depth == 0:
                spans.append((seg_start, i))
                seg_start = i + 1
        spans.append((seg_start, b_end))
        for s, e in spans:
            chunk = code[s:e].strip()
            literal = None
            for off, content in src.strings.items():
                if s <= off < e:
                    literal = content if literal is None else literal + content
            if literal is not None:
                parts.append(literal)
            elif chunk:
                parts.append("P")  # runtime fragment: one segment
        names.append("".join(parts))
    return names


def first_argument_end(code: str, start: int, end: int) -> int:
    """End of the first call argument in code[start:end]: the name in the
    binding form counter(name, source), whose source is never judged."""
    depth = 0
    for i in range(start, end):
        c = code[i]
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        elif c == "," and depth == 0:
            return i
    return end


def valid_metric_name(name: str) -> bool:
    segments = name.split(".")
    if not 2 <= len(segments) <= 5:
        return False
    return all(seg and SEGMENT_RE.fullmatch(seg) for seg in segments)


def pass_metric_names(sources: Sequence[SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    for src in sources:
        for m in METRIC_CALL_RE.finditer(src.code):
            open_paren = src.code.index("(", m.end() - 1)
            close = first_argument_end(
                src.code, open_paren + 1, match_paren(src.code, open_paren) - 1)
            # Only metric registrations take a name: skip calls whose
            # name argument carries no string literal at all (e.g. gauge
            # pointer plumbing like set_occupancy_gauge(nullptr)).
            has_literal = any(open_paren < off < close for off in src.strings)
            if not has_literal:
                continue
            for name in candidate_names(src, open_paren + 1, close):
                if not valid_metric_name(name):
                    shown = name.replace("P", "<runtime>")
                    findings.append(Finding(
                        "metric-names", src.path, src.line_of(m.start()),
                        f"metric name `{shown}` violates the "
                        "component.instance.metric contract (2..5 segments "
                        "of [A-Za-z0-9_-])"))
                    continue
                component = name.split(".", 1)[0]
                # A component carrying the runtime placeholder cannot be
                # judged statically; only literal components are checked.
                if "P" in component or component in KNOWN_COMPONENTS:
                    continue
                findings.append(Finding(
                    "metric-names", src.path, src.line_of(m.start()),
                    f"metric component `{component}` is not a known "
                    "namespace — add it to KNOWN_COMPONENTS in "
                    "scripts/srp_lint.py if this is a deliberate new "
                    "subsystem"))
    return findings


# ---------------------------------------------------------------------------
# Pass 4: state-switch-default
# ---------------------------------------------------------------------------

SWITCH_RE = re.compile(r"\bswitch\s*\(")
STATE_ENUM_SUFFIXES = ("State", "Result", "Policy")
CASE_QUALIFIER_RE = re.compile(r"\bcase\s+((?:\w+\s*::\s*)+)")
DEFAULT_LABEL_RE = re.compile(r"\bdefault\s*:")


def switch_body_span(code: str, switch_start: int) -> Optional[Tuple[int, int]]:
    """(open_brace, past_close_brace) of the switch statement's body."""
    open_paren = code.find("(", switch_start)
    if open_paren < 0:
        return None
    j = match_paren(code, open_paren)
    while j < len(code) and code[j].isspace():
        j += 1
    if j >= len(code) or code[j] != "{":
        return None
    return j, match_brace(code, j)


def pass_state_switch_default(sources: Sequence[SourceFile]) -> List[Finding]:
    """Flag `default:` in switches over *State / *Result / *Policy enums.

    The controlling enum is recognized from the `case Enum::kValue` labels
    (the lexical scan has no type information), so a switch over plain
    integers is never flagged.  A `default:` belonging to a nested switch
    is attributed to that inner switch only.
    """
    findings: List[Finding] = []
    for src in sources:
        switch_ok = comment_exempt_lines(src, "SRP_SWITCH_OK")
        spans = []  # (switch offset, body open, body end)
        for m in SWITCH_RE.finditer(src.code):
            span = switch_body_span(src.code, m.start())
            if span is not None:
                spans.append((m.start(), span[0], span[1]))
        for offset, body_start, body_end in spans:
            nested = [(s, e) for o, s, e in spans
                      if body_start < s and e <= body_end]

            def in_nested(i: int) -> bool:
                return any(s < i < e for s, e in nested)

            enums: Set[str] = set()
            for c in CASE_QUALIFIER_RE.finditer(
                    src.code, body_start, body_end):
                if in_nested(c.start()):
                    continue
                qualifiers = [q for q in re.split(r"\s*::\s*", c.group(1)) if q]
                if qualifiers and qualifiers[-1].endswith(STATE_ENUM_SUFFIXES):
                    enums.add(qualifiers[-1])
            if not enums:
                continue
            for d in DEFAULT_LABEL_RE.finditer(src.code, body_start, body_end):
                if in_nested(d.start()):
                    continue
                if src.line_of(offset) in switch_ok:
                    continue
                enum_name = ", ".join(sorted(enums))
                findings.append(Finding(
                    "state-switch-default", src.path, src.line_of(d.start()),
                    f"`default:` in switch over state enum `{enum_name}` — "
                    "enumerate every enumerator so a new state is a "
                    "-Wswitch error, not a silent fallthrough (or annotate "
                    "SRP_SWITCH_OK with a reason)"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

PASSES = ("determinism", "hotpath-alloc", "metric-names",
          "state-switch-default")


def load_source(path: str) -> SourceFile:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return parse_source(path, fh.read())
    except OSError as err:
        raise SystemExit(f"srp-lint: cannot read {path}: {err}")


def members_of_file(path: str) -> List[str]:
    """Worker: unordered-container member names declared in one file."""
    return sorted(collect_unordered_members([load_source(path)]))


# Per-file scan result: (findings, per-pass seconds).
ScanResult = Tuple[List[Finding], Dict[str, float]]


def scan_file(args: Tuple[str, Tuple[str, ...], Tuple[str, ...]]) -> ScanResult:
    """Worker: every per-file pass over a single source file."""
    path, selected_seq, members_seq = args
    selected = set(selected_seq)
    members = set(members_seq)
    src = load_source(path)
    findings: List[Finding] = []
    timings: Dict[str, float] = {}

    def timed(name: str, fn) -> List[Finding]:
        t0 = time.perf_counter()
        out = fn()
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0
        return out

    if "determinism" in selected:
        findings += timed("determinism",
                          lambda: pass_determinism([src], members))
    if "hotpath-alloc" in selected:
        findings += timed("hotpath-alloc",
                          lambda: pass_hotpath_alloc([src]))
    if "metric-names" in selected:
        findings += timed("metric-names", lambda: pass_metric_names([src]))
    if "state-switch-default" in selected:
        findings += timed("state-switch-default",
                          lambda: pass_state_switch_default([src]))
    return findings, timings


def run_passes(paths: Sequence[str],
               only: Optional[Set[str]] = None,
               jobs: int = 1,
               timings_out: Optional[Dict[str, float]] = None
               ) -> List[Finding]:
    selected = only or set(PASSES)
    jobs = max(1, min(jobs, len(paths) or 1))

    def pmap(fn, items):
        if jobs == 1:
            return [fn(item) for item in items]
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(fn, items)

    members: Set[str] = set()
    if "determinism" in selected:
        t0 = time.perf_counter()
        for chunk in pmap(members_of_file, list(paths)):
            members.update(chunk)
        if timings_out is not None:
            timings_out["determinism"] = (timings_out.get("determinism", 0.0)
                                          + time.perf_counter() - t0)

    work = [(path, tuple(sorted(selected)), tuple(sorted(members)))
            for path in paths]
    findings: List[Finding] = []
    for file_findings, file_timings in pmap(scan_file, work):
        findings += file_findings
        if timings_out is not None:
            for name, seconds in file_timings.items():
                timings_out[name] = timings_out.get(name, 0.0) + seconds

    findings.sort(key=lambda f: (f.path, f.line, f.pass_name, f.message))
    return findings


def default_file_list() -> List[str]:
    """Translation units from compile_commands.json when available,
    plus every header/source under src/."""
    files: Set[str] = set()
    for build_dir in ("build", "build-debug", "build-asan"):
        cc_path = os.path.join(REPO_ROOT, build_dir, "compile_commands.json")
        if os.path.exists(cc_path):
            try:
                with open(cc_path) as fh:
                    for entry in json.load(fh):
                        f = os.path.normpath(
                            os.path.join(entry.get("directory", ""),
                                         entry.get("file", "")))
                        if f.startswith(os.path.join(REPO_ROOT, "src")):
                            files.add(f)
            except (json.JSONDecodeError, OSError):
                pass
            break
    src_root = os.path.join(REPO_ROOT, "src")
    for dirpath, _, names in os.walk(src_root):
        for name in names:
            if name.endswith(CXX_SUFFIXES):
                files.add(os.path.join(dirpath, name))
    return sorted(files)


def expand_paths(args: Sequence[str]) -> List[str]:
    files: List[str] = []
    for arg in args:
        if os.path.isdir(arg):
            for dirpath, _, names in os.walk(arg):
                files += [os.path.join(dirpath, n) for n in names
                          if n.endswith(CXX_SUFFIXES)]
        else:
            files.append(arg)
    return sorted(set(files))


def self_test() -> int:
    """Each pass must flag its bad fixture and stay quiet on clean.cpp."""
    fixture_dir = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
    cases = [
        ("determinism", "determinism_bad.cpp", 6),
        ("hotpath-alloc", "hotpath_alloc_bad.cpp", 2),
        ("hotpath-alloc", "hotpath_try_bad.cpp", 2),
        ("metric-names", "metric_name_bad.cpp", 5),
        ("metric-names", "metric_namespace_bad.cpp", 1),
        ("metric-names", "metric_namespace_health.cpp", 1),
        ("state-switch-default", "state_switch_default_bad.cpp", 2),
    ]
    failures = 0
    for pass_name, fixture, min_findings in cases:
        path = os.path.join(fixture_dir, fixture)
        findings = [f for f in run_passes([path], only={pass_name})
                    if f.pass_name == pass_name]
        if len(findings) >= min_findings:
            print(f"self-test PASS: {pass_name} flags {fixture} "
                  f"({len(findings)} findings)")
        else:
            failures += 1
            print(f"self-test FAIL: {pass_name} found {len(findings)} "
                  f"findings in {fixture}, expected >= {min_findings}")
            for f in findings:
                print("  " + f.render())
    clean = os.path.join(fixture_dir, "clean.cpp")
    clean_findings = run_passes([clean])
    if clean_findings:
        failures += 1
        print(f"self-test FAIL: clean.cpp produced "
              f"{len(clean_findings)} findings:")
        for f in clean_findings:
            print("  " + f.render())
    else:
        print("self-test PASS: clean.cpp is clean under all passes")
    return 1 if failures else 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="srp-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each pass against tests/lint_fixtures/")
    parser.add_argument("--pass", dest="only", action="append",
                        choices=PASSES, help="run only the named pass")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scan files on N worker processes (default 1); "
                             "output is identical regardless of N")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-pass wall time after the scan")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.self_test:
        return self_test()

    files = expand_paths(args.paths) if args.paths else default_file_list()
    if not files:
        print("srp-lint: no input files", file=sys.stderr)
        return 2
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    findings = run_passes(files, set(args.only) if args.only else None,
                          jobs=args.jobs, timings_out=timings)
    elapsed = time.perf_counter() - started
    for f in findings:
        print(f.render())
    if args.verbose:
        print(f"srp-lint: timings over {len(files)} file(s), "
              f"jobs={args.jobs}:", file=sys.stderr)
        for name in PASSES:
            if name in timings:
                print(f"  {name:<22} {timings[name]:8.3f}s",
                      file=sys.stderr)
        print(f"  {'total (wall)':<22} {elapsed:8.3f}s", file=sys.stderr)
    if findings:
        print(f"srp-lint: {len(findings)} finding(s) across "
              f"{len(files)} file(s)")
        return 1
    print(f"srp-lint: clean ({len(files)} files, "
          f"{len(PASSES)} passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
