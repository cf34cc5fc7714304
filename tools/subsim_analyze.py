#!/usr/bin/env python3
"""subsim_analyze: the repo's invariant checker.

Enforces the rules that clang-tidy cannot express because they encode
*this* repository's architecture: reproducible randomness, confined
threads and sockets, one RR fill entry point, and consumed Status values.
It has two engines:

  ast    libclang over compile_commands.json — full semantic accuracy
         (type-resolved references, real statement boundaries).
  text   a comment/string-stripping lexer with small parsers for paren
         matching, declarations, and range-for headers. No dependencies;
         always available. The CI clang job runs the ast engine; the
         default build runs text.

Engine selection is `--engine=auto` by default: ast when the `clang`
python bindings AND a loadable libclang are present, otherwise text with
a one-line notice. Checks the preprocessor hides from the AST, or that are
plain name mentions, run on the stripped text for both engines, so the
engines agree on them by construction. The self-test holds both engines to
the same (file, line, rule) findings on the fixture corpus.

Rules (paths are relative to the repo root; suppress with
`// SUBSIM-NOLINT(<rule>): <reason>` on the line or
`// SUBSIM-NOLINT-NEXTLINE(<rule>): <reason>` on the line above):

  status-discarded     A call whose result is Status/Result used as a bare
                       expression statement, anywhere. `[[nodiscard]]`
                       catches this at compile time; the analyzer keeps it
                       visible to tooling that only sees sources. The text
                       engine matches by name: declarations are gathered
                       from src/ and the scanned paths, and a name also
                       declared with a non-Status return type is skipped.
  raw-random           std::random_device / rand / srand / <random> engine
                       types (mt19937 et al.) outside src/subsim/random/.
                       Every random bit must derive from a subsim::Rng so a
                       single 64-bit seed reproduces the run.
  raw-thread           std::thread / std::jthread / <thread> under src/,
                       except rrset/parallel_fill.cc, serve/query_engine.cc,
                       util/threading.cc and net/http_server.{h,cc}. Thread
                       management stays in those units so TSan coverage and
                       determinism arguments stay local. (Text, both
                       engines.)
  raw-socket           Socket headers (<sys/socket.h> et al.) or socket
                       syscalls (socket, connect, listen, ...) outside
                       src/subsim/net/. All wire traffic goes through
                       HttpServer/HttpClient so the fuzzable parser, IO
                       timeouts, and the admission layer cannot be
                       bypassed. The header check is text for both engines.
                       Under src/ the text engine matches bare and
                       qualified calls; elsewhere only ::-qualified ones,
                       the repo convention for libc calls (bare connect()
                       there is usually a client method).
  iostream-logging     std::cout / cerr / clog, <iostream>, or the printf
                       family under src/, except util/logging.{h,cc} and
                       util/check.h. Console writes bypass the log-level
                       filter and interleave under concurrency; use
                       SUBSIM_LOG. (Text, both engines.)
  ad-hoc-timer         WallTimer inside src/subsim/{algo,rrset,serve}.
                       Timing there flows through PhaseScope so every
                       measured interval is a traced span. (Text, both
                       engines.)
  fill-entry-point     The batched chunk kernel (BatchRrKernel,
                       GenerateChunk) outside src/subsim/{random,rrset}/:
                       bulk RR generation has exactly one entry point,
                       FillCollection(FillRequest). Mentions of the
                       BatchRrKernel type are text checks for both engines.
  nolint-needs-reason  A suppression of any rule must carry a reason.
  wall-clock           Reading any clock (steady/system/high_resolution
                       ::now, time(nullptr), gettimeofday, clock_gettime)
                       inside src/subsim/{algo,rrset,random}. Those layers
                       compute *results*; a result that depends on the
                       clock is not replayable. Timing belongs to the
                       serve/obs layers (PhaseScope).
  rng-confinement      Direct `Rng rng(seed)` construction inside
                       src/subsim/{algo,rrset,serve,sampling,eval,
                       coverage}. Streams there must come from the
                       counter-based API — Rng::Substream(base, i),
                       MakeRngStream, or a DeriveStreamSeed'd seed — so
                       sample i is the same no matter which thread draws
                       it. A raw seed starts a sequential stream that
                       silently breaks thread-count invariance.
  unordered-iteration  Range-for over a std::unordered_{set,map} inside
                       src/subsim/{algo,rrset,random,graph} — the layers
                       whose outputs must be bit-identical across standard
                       libraries. Hash-table iteration order is
                       implementation-defined; feeding it into edges,
                       samples, or seeds makes the "same seed" produce
                       different results on libc++ vs libstdc++. (This rule
                       found a real bug: GenerateBarabasiAlbert emitted
                       attachment targets in unordered_set order.)

Usage:
  tools/subsim_analyze.py <path>...              analyze files/directories
  tools/subsim_analyze.py --engine=ast <path>... require the ast engine
  tools/subsim_analyze.py --self-test            run the fixture corpus

Fixtures live in tools/lint_fixtures/. Because rules are path-scoped, each
fixture declares a virtual location on its first lines:
`// ANALYZE-AS: src/subsim/algo/example.cc`. Expected findings are marked
in place with `// ANALYZE-EXPECT: <rule>[, <rule>...]`.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys

CXX_SUFFIXES = {".cc", ".cpp", ".cxx", ".h", ".hpp"}

# ---------------------------------------------------------------------------
# Path policy. Rules see a file's path relative to the repo root (or its
# ANALYZE-AS pragma). A trailing-slash pattern matches any directory
# component prefix; otherwise the path suffix must match.
# ---------------------------------------------------------------------------

# raw-thread, iostream-logging and the bare-call raw-socket check apply
# only under this prefix.
SRC_PREFIX = "src/"
RAW_RANDOM_ALLOWED = ("src/subsim/random/",)
RAW_THREAD_ALLOWED = (
    "rrset/parallel_fill.cc",
    "serve/query_engine.cc",
    "util/threading.cc",  # the hardware_concurrency fallback helper
    "net/http_server.cc",  # acceptor + worker pool (the serving frontend)
    "net/http_server.h",
)
IOSTREAM_ALLOWED = ("util/logging.h", "util/logging.cc", "util/check.h")
AD_HOC_TIMER_FORBIDDEN = (
    "src/subsim/algo/",
    "src/subsim/rrset/",
    "src/subsim/serve/",
)
WALL_CLOCK_FORBIDDEN = (
    "src/subsim/algo/",
    "src/subsim/rrset/",
    "src/subsim/random/",
)
RNG_CONFINEMENT_FORBIDDEN = (
    "src/subsim/algo/",
    "src/subsim/rrset/",
    "src/subsim/serve/",
    "src/subsim/sampling/",
    "src/subsim/eval/",
    "src/subsim/coverage/",
)
FILL_ENTRY_ALLOWED = (
    "src/subsim/random/",
    "src/subsim/rrset/",
)
RAW_SOCKET_ALLOWED = ("src/subsim/net/",)
UNORDERED_ITER_FORBIDDEN = (
    "src/subsim/algo/",
    "src/subsim/rrset/",
    "src/subsim/random/",
    "src/subsim/graph/",
)

ALL_RULES = (
    "status-discarded",
    "raw-random",
    "raw-thread",
    "raw-socket",
    "iostream-logging",
    "ad-hoc-timer",
    "fill-entry-point",
    "nolint-needs-reason",
    "wall-clock",
    "rng-confinement",
    "unordered-iteration",
)

# Functions that mint sanctioned, replayable streams. An Rng initializer
# mentioning one of these is counter-derived, not an ad-hoc sequence.
SANCTIONED_STREAM_RE = re.compile(
    r"\b(?:Substream|MakeRngStream|DeriveStreamSeed|RngStream)\b")

NOLINT_RE = re.compile(
    r"SUBSIM-NOLINT\((?P<rules>[\w,\- ]+)\)(?::\s*(?P<reason>\S[^\n]*))?")
NOLINT_NEXTLINE_RE = re.compile(
    r"SUBSIM-NOLINT-NEXTLINE\((?P<rules>[\w,\- ]+)\)"
    r"(?::\s*(?P<reason>\S[^\n]*))?")
ANALYZE_AS_RE = re.compile(r"ANALYZE-AS:\s*(?P<path>\S+)")

RAW_RANDOM_RE = re.compile(
    r"\b(?:std::)?(?:s?rand|random_device|mt19937(?:_64)?"
    r"|default_random_engine|minstd_rand0?|ranlux(?:24|48)(?:_base)?"
    r"|knuth_b)\b")
RAW_THREAD_RE = re.compile(
    r"\bstd::j?thread\b|^[ \t]*#[ \t]*include[ \t]*<thread>", re.MULTILINE)
IOSTREAM_RE = re.compile(
    r"\bstd::(?:cout|cerr|clog)\b"
    r"|^[ \t]*#[ \t]*include[ \t]*<iostream>"
    r"|\b(?:std::)?(?:printf|fprintf|puts|fputs)\s*\(",
    re.MULTILINE,
)
# Any mention of the type is a use: you cannot time with WallTimer without
# naming it.
AD_HOC_TIMER_RE = re.compile(r"\bWallTimer\b")
WALL_CLOCK_RE = re.compile(
    r"\b(?:std::chrono::)?(?:system_clock|steady_clock"
    r"|high_resolution_clock)\s*::\s*now\b"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bstd::time\s*\("
    r"|(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL)")
# fill-entry-point: the chunk call is an engine check; naming the batched
# chunk kernel's type is a text check for both engines.
FILL_ENTRY_CALL_RE = re.compile(r"\bGenerateChunk\s*\(")
FILL_ENTRY_TYPE_RE = re.compile(r"\bBatchRrKernel\b")

# Direct Rng construction: `Rng name(init)`, `Rng name{init}`, `= Rng(...)`,
# `return Rng(...)`. `Rng name = Rng::Substream(...)` never matches these
# (the token after `Rng` is `=` / `::`), and matched initializers are still
# screened against SANCTIONED_STREAM_RE before reporting.
RNG_DECL_RE = re.compile(r"\bRng\s+(?P<name>\w+)\s*(?P<open>[({])")
RNG_TEMP_RE = re.compile(r"(?:=|return)\s*Rng\s*(?P<open>[({])")

# Function declarations returning Status or Result<...>, e.g.
#   Status WriteEdgeListText(...)
#   [[nodiscard]] Result<EdgeList> ReadEdgeListText(...)
STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|inline\s+|virtual\s+)*"
    r"(?:::)?(?:subsim::)?(?:Status|Result<[\w:<>,\s*&]+>)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE,
)
# Same-name declarations with a different return type (e.g. void Fill vs
# Status Fill). Matching is name-based and file-blind, so ambiguous names
# are dropped from enforcement rather than risking false positives.
NON_STATUS_DECL_RE = re.compile(
    r"^\s*(?:static\s+|inline\s+|virtual\s+|constexpr\s+|explicit\s+)*"
    r"(?:void|bool|int|unsigned|float|double|std::size_t|size_t)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE,
)
# A discarded call statement: `Foo(...)` or `obj.Foo(...)` / `ptr->Foo(...)`
# / `ns::Foo(...)` appearing at the start of a statement.
CALL_HEAD_RE = re.compile(
    r"^(?:[A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*))*(?P<name>[A-Za-z_]\w*)\s*\(")
STMT_KEYWORDS = {
    "return", "co_return", "if", "else", "while", "for", "do", "switch",
    "case", "goto", "new", "delete", "throw", "using", "namespace",
    "template", "typedef", "static_assert", "sizeof",
}

# Socket confinement. bind/send/recv are deliberately absent (std::bind and
# generic Send/Recv method names would false-positive); real socket code
# cannot avoid the headers or the distinctive calls below.
SOCKET_HEADER_RE = re.compile(
    r"^[ \t]*#[ \t]*include[ \t]*<(?P<header>sys/socket\.h|netinet/in\.h"
    r"|netinet/tcp\.h|arpa/inet\.h|sys/un\.h|netdb\.h)>",
    re.MULTILINE,
)
SOCKET_SYSCALL_NAMES = {
    "socket", "accept", "accept4", "listen", "connect", "getsockname",
    "getpeername", "setsockopt", "getsockopt", "inet_pton", "inet_ntop",
    "recvfrom", "sendto",
}
_SOCKET_NAMES = "|".join(sorted(SOCKET_SYSCALL_NAMES))
SOCKET_QUALIFIED_CALL_RE = re.compile(r"::\s*(?:" + _SOCKET_NAMES + r")\s*\(")
SOCKET_ANY_CALL_RE = re.compile(r"\b(?:" + _SOCKET_NAMES + r")\s*\(")

UNORDERED_TYPE_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:set|map|multiset|multimap)\s*<")


@dataclasses.dataclass(frozen=True)
class Finding:
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: pathlib.Path) -> str:
        try:
            shown = self.path.relative_to(root)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


def read_text(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def path_matches(posix: str, patterns: tuple[str, ...]) -> bool:
    """Trailing-slash patterns match any directory component prefix;
    otherwise the path suffix must match."""
    return any(s in posix if s.endswith("/") else posix.endswith(s)
               for s in patterns)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line layout."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif ch == '"' and text[max(0, i - 1) : i] == "R":
            m = re.match(r'R"([^(\s]*)\(', text[i - 1 :])
            if m:
                closer = ")" + m.group(1) + '"'
                j = text.find(closer, i + m.end() - 1)
                j = n if j < 0 else j + len(closer)
                out.append("".join(c if c == "\n" else " " for c in text[i:j]))
                i = j
            else:
                out.append(ch)
                i += 1
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(ch + " " * (j - i - 2) + (ch if j - i >= 2 else ""))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def matching_close(code: str, open_offset: int) -> int:
    """Offset just past the delimiter matching code[open_offset] ('(' or
    '{'); len(code) when unbalanced."""
    opener = code[open_offset]
    closer = {"(": ")", "{": "}"}[opener]
    depth = 0
    for i in range(open_offset, len(code)):
        if code[i] == opener:
            depth += 1
        elif code[i] == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def find_nolint(raw_lines: list[str], lineno: int):
    """Returns (rules, has_reason, marker_line) for a suppression covering
    `lineno`: a SUBSIM-NOLINT on the line itself or a
    SUBSIM-NOLINT-NEXTLINE on the line above; None otherwise."""
    if lineno - 1 < len(raw_lines):
        m = NOLINT_RE.search(raw_lines[lineno - 1])
        # Guard against NOLINT-NEXTLINE also matching the plain-NOLINT regex.
        if m and "SUBSIM-NOLINT-NEXTLINE" not in raw_lines[lineno - 1]:
            rules = {r.strip() for r in m.group("rules").split(",")}
            return rules, m.group("reason") is not None, lineno
    if lineno >= 2:
        m = NOLINT_NEXTLINE_RE.search(raw_lines[lineno - 2])
        if m:
            rules = {r.strip() for r in m.group("rules").split(",")}
            return rules, m.group("reason") is not None, lineno - 1
    return None


def virtual_path(path: pathlib.Path, raw: str, root: pathlib.Path) -> str:
    """The POSIX path rules are applied to: the ANALYZE-AS pragma when the
    file carries one (fixtures), else the path relative to the repo root
    (the absolute path for files outside it)."""
    head = "\n".join(raw.splitlines()[:5])
    m = ANALYZE_AS_RE.search(head)
    if m:
        return m.group("path")
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def collect_status_functions(files: list[pathlib.Path]) -> set[str]:
    names: set[str] = set()
    ambiguous: set[str] = set()
    for path in files:
        text = strip_comments_and_strings(read_text(path))
        for m in STATUS_DECL_RE.finditer(text):
            name = m.group("name")
            if name not in STMT_KEYWORDS and not name.startswith("operator"):
                names.add(name)
        for m in NON_STATUS_DECL_RE.finditer(text):
            ambiguous.add(m.group("name"))
    return names - ambiguous


# ---------------------------------------------------------------------------
# Engine-independent checks
# ---------------------------------------------------------------------------


def lexical_findings(code: str, vpath: str) -> list[tuple[int, str, str]]:
    """Checks that run on the stripped text under both engines: include
    directives vanish before the AST exists, and the remaining checks flag
    bare name mentions, which need no semantic resolution."""
    out: list[tuple[int, str, str]] = []
    in_src = vpath.startswith(SRC_PREFIX)

    if not path_matches(vpath, RAW_SOCKET_ALLOWED):
        for m in SOCKET_HEADER_RE.finditer(code):
            out.append((line_of(code, m.start()), "raw-socket",
                        f"#include <{m.group('header')}> outside "
                        "src/subsim/net/; raw sockets are confined to the "
                        "net layer"))

    if in_src and not path_matches(vpath, RAW_THREAD_ALLOWED):
        for m in RAW_THREAD_RE.finditer(code):
            out.append((line_of(code, m.start()), "raw-thread",
                        "std::thread outside the fill fan-out, the "
                        "QueryEngine and HttpServer pools, and "
                        "util/threading.cc; route parallelism through "
                        "FillCollection or a worker pool"))

    if in_src and not path_matches(vpath, IOSTREAM_ALLOWED):
        for m in IOSTREAM_RE.finditer(code):
            out.append((line_of(code, m.start()), "iostream-logging",
                        "direct console output is forbidden outside "
                        "util/logging; use SUBSIM_LOG(level)"))

    if path_matches(vpath, AD_HOC_TIMER_FORBIDDEN):
        for m in AD_HOC_TIMER_RE.finditer(code):
            out.append((line_of(code, m.start()), "ad-hoc-timer",
                        "WallTimer is forbidden in src/subsim/{algo,rrset,"
                        "serve}; time phases with PhaseScope "
                        "(subsim/obs/phase_tracer.h) so the interval is "
                        "traced as a span"))

    if not path_matches(vpath, FILL_ENTRY_ALLOWED):
        for m in FILL_ENTRY_TYPE_RE.finditer(code):
            out.append((line_of(code, m.start()), "fill-entry-point",
                        f"{m.group(0)} is fill machinery; generate RR sets "
                        "through FillCollection(FillRequest)"))
    return out


# ---------------------------------------------------------------------------
# Textual engine
# ---------------------------------------------------------------------------


def iter_statements(code: str):
    """Yields (offset, statement) pairs, splitting on ';' and '{' / '}'.

    Crude but sufficient: statement boundaries inside for(;;) headers and
    initializer lists produce fragments that simply fail the call-head match.
    """
    start = 0
    for i, ch in enumerate(code):
        if ch in ";{}":
            yield start, code[start:i]
            start = i + 1
    yield start, code[start:]


def unordered_container_names(code: str) -> set[str]:
    """Names of variables/members declared with a std::unordered_* type."""
    names: set[str] = set()
    for m in UNORDERED_TYPE_RE.finditer(code):
        # Skip the template argument list (depth-matched on <>), then read
        # the declared identifier if one follows.
        depth = 1
        i = m.end()
        while i < len(code) and depth:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        rest = code[i:]
        decl = re.match(r"\s*&?\s*(?P<name>\w+)\s*[;,({=)]", rest)
        if decl:
            names.add(decl.group("name"))
    return names


def range_for_headers(code: str):
    """Yields (offset_of_range_expr, range_expr_text) for each range-for.

    The ':' is located at paren depth 1, skipping '::' tokens, so types
    like std::uint64_t in the loop variable don't confuse the split.
    """
    for m in re.finditer(r"\bfor\s*\(", code):
        open_off = m.end() - 1
        close = matching_close(code, open_off) - 1
        header = code[open_off + 1 : close]
        depth = 0
        i = 0
        while i < len(header):
            ch = header[i]
            if ch in "([{<":
                depth += 1
            elif ch in ")]}>":
                depth = max(0, depth - 1)
            elif ch == ":" and depth == 0:
                if header[i + 1 : i + 2] == ":" or header[i - 1 : i] == ":":
                    i += 2
                    continue
                expr = header[i + 1 :]
                yield open_off + 1 + i + 1 + (len(expr) - len(expr.lstrip())
                                              ), expr.strip()
                break
            i += 1


def text_engine_findings(
    code: str,
    vpath: str,
    status_functions: set[str],
) -> list[tuple[int, str, str]]:
    """Returns (lineno, rule, message) triples; suppression is applied by
    the caller so both engines share it."""
    out: list[tuple[int, str, str]] = []

    if not path_matches(vpath, RAW_RANDOM_ALLOWED):
        for m in RAW_RANDOM_RE.finditer(code):
            out.append((line_of(code, m.start()), "raw-random",
                        "raw libc/<random> randomness outside "
                        "src/subsim/random/; draw from a subsim::Rng so the "
                        "run replays from one seed"))

    if path_matches(vpath, WALL_CLOCK_FORBIDDEN):
        for m in WALL_CLOCK_RE.finditer(code):
            out.append((line_of(code, m.start()), "wall-clock",
                        "clock read in a deterministic layer "
                        "(src/subsim/{algo,rrset,random}); results must not "
                        "depend on time — measure in serve/obs via "
                        "PhaseScope instead"))

    if path_matches(vpath, RNG_CONFINEMENT_FORBIDDEN):
        for m in RNG_DECL_RE.finditer(code):
            init = code[m.start("open") : matching_close(code,
                                                         m.start("open"))]
            if not SANCTIONED_STREAM_RE.search(init):
                out.append((line_of(code, m.start()), "rng-confinement",
                            f"Rng {m.group('name')} constructed from a raw "
                            "seed in a stream-disciplined layer; derive it "
                            "with Rng::Substream / MakeRngStream / "
                            "DeriveStreamSeed so draws stay thread-count "
                            "invariant"))
        for m in RNG_TEMP_RE.finditer(code):
            init = code[m.start("open") : matching_close(code,
                                                         m.start("open"))]
            if not SANCTIONED_STREAM_RE.search(init):
                out.append((line_of(code, m.start()), "rng-confinement",
                            "temporary Rng constructed from a raw seed in a "
                            "stream-disciplined layer; use the Substream/"
                            "RngStream API"))

    if not path_matches(vpath, FILL_ENTRY_ALLOWED):
        for m in FILL_ENTRY_CALL_RE.finditer(code):
            out.append((line_of(code, m.start()), "fill-entry-point",
                        "bulk RR generation must go through FillCollection"
                        "(FillRequest); the batched chunk kernel here "
                        "bypasses the thread-count-invariance contract"))

    if not path_matches(vpath, RAW_SOCKET_ALLOWED):
        call_re = (SOCKET_ANY_CALL_RE if vpath.startswith(SRC_PREFIX)
                   else SOCKET_QUALIFIED_CALL_RE)
        for m in call_re.finditer(code):
            out.append((line_of(code, m.start()), "raw-socket",
                        "socket syscall outside src/subsim/net/; serve over "
                        "HttpServer and drive clients through HttpClient so "
                        "the wire stays behind the parser and the admission "
                        "layer"))

    for offset, stmt in iter_statements(code):
        body = stmt.strip()
        if not body or "=" in body.split("(", 1)[0]:
            continue
        m = CALL_HEAD_RE.match(body)
        if not m:
            continue
        first = re.match(r"[A-Za-z_]\w*", body)
        if first and first.group(0) in STMT_KEYWORDS:
            continue
        if m.group("name") in status_functions:
            body_start = offset + len(stmt) - len(stmt.lstrip())
            out.append((line_of(code, body_start + m.start("name")),
                        "status-discarded",
                        f"result of {m.group('name')}() (Status/Result) is "
                        "discarded; check it, propagate it, or (void)-cast "
                        "with a SUBSIM-NOLINT reason"))

    if path_matches(vpath, UNORDERED_ITER_FORBIDDEN):
        unordered = unordered_container_names(code)
        for offset, expr in range_for_headers(code):
            tail = re.search(r"(\w+)\s*$", expr)
            if tail and tail.group(1) in unordered:
                out.append((line_of(code, offset), "unordered-iteration",
                            f"range-for over unordered container "
                            f"'{tail.group(1)}' in a determinism-critical "
                            "layer; hash iteration order is implementation-"
                            "defined — copy to a sorted vector (or use an "
                            "ordered container) before consuming"))
    return out


# ---------------------------------------------------------------------------
# AST engine (libclang). Import is lazy and failure-tolerant: this container
# or a contributor machine without clang bindings silently uses the textual
# engine under --engine=auto.
# ---------------------------------------------------------------------------


def load_cindex():
    """Returns a working clang.cindex module or None."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:  # noqa: BLE001 — any load failure means "unavailable"
        return None


def compile_args_for(path: pathlib.Path, compdb, root: pathlib.Path):
    if compdb is not None:
        for entry in compdb:
            if pathlib.Path(entry.get("file", "")).name == path.name:
                args = entry.get("arguments")
                if not args:
                    args = entry.get("command", "").split()
                # Drop compiler, -c/-o pairs, and the source file itself.
                cleaned = []
                skip = False
                for a in args[1:]:
                    if skip:
                        skip = False
                        continue
                    if a in ("-c", path.name) or a.endswith(path.suffix):
                        continue
                    if a == "-o":
                        skip = True
                        continue
                    cleaned.append(a)
                return cleaned
    return ["-std=c++20", f"-I{root / 'src'}"]


RANDOM_ENTITY_NAMES = {
    "rand", "srand", "random_device", "mt19937", "mt19937_64",
    "default_random_engine", "minstd_rand", "minstd_rand0",
}
CLOCK_PARENTS = {"system_clock", "steady_clock", "high_resolution_clock"}
WALL_CLOCK_FREE_FUNCS = {"time", "clock", "gettimeofday", "clock_gettime"}


def ast_engine_findings(
    cindex,
    path: pathlib.Path,
    vpath: str,
    args: list[str],
) -> list[tuple[int, str, str]]:
    index = cindex.Index.create()
    tu = index.parse(str(path), args=args)
    K = cindex.CursorKind
    out: list[tuple[int, str, str]] = []

    def here(cursor) -> bool:
        return (cursor.location.file is not None
                and pathlib.Path(str(cursor.location.file)) == path)

    def type_spelling(t) -> str:
        try:
            return t.get_canonical().spelling
        except Exception:  # noqa: BLE001
            return t.spelling

    def walk(cursor) -> None:
        for child in cursor.get_children():
            if here(child):
                visit(child)
            walk(child)

    def visit(cursor) -> None:
        line = cursor.location.line
        kind = cursor.kind

        if kind in (K.DECL_REF_EXPR, K.TYPE_REF, K.CALL_EXPR):
            name = cursor.spelling
            if (name in RANDOM_ENTITY_NAMES
                    and not path_matches(vpath, RAW_RANDOM_ALLOWED)):
                out.append((line, "raw-random",
                            f"reference to {name}: raw randomness outside "
                            "src/subsim/random/"))

        if kind == K.CALL_EXPR and path_matches(vpath, WALL_CLOCK_FORBIDDEN):
            name = cursor.spelling
            ref = cursor.referenced
            parent_name = (ref.semantic_parent.spelling
                           if ref is not None and ref.semantic_parent
                           else "")
            if ((name == "now" and parent_name in CLOCK_PARENTS)
                    or name in WALL_CLOCK_FREE_FUNCS):
                out.append((line, "wall-clock",
                            f"call to {parent_name + '::' if parent_name in CLOCK_PARENTS else ''}"
                            f"{name} in a deterministic layer"))

        if (kind == K.VAR_DECL
                and path_matches(vpath, RNG_CONFINEMENT_FORBIDDEN)):
            spelled = type_spelling(cursor.type)
            if spelled.endswith("subsim::Rng") or spelled == "Rng":
                tokens = " ".join(t.spelling
                                  for t in cursor.get_tokens())
                if ("(" in tokens or "{" in tokens) \
                        and not SANCTIONED_STREAM_RE.search(tokens):
                    out.append((line, "rng-confinement",
                                f"Rng {cursor.spelling} constructed from a "
                                "raw seed; use Rng::Substream / "
                                "MakeRngStream / DeriveStreamSeed"))

        if (kind == K.CALL_EXPR
                and not path_matches(vpath, RAW_SOCKET_ALLOWED)
                and cursor.spelling in SOCKET_SYSCALL_NAMES):
            out.append((line, "raw-socket",
                        f"call to ::{cursor.spelling}: socket syscall "
                        "outside src/subsim/net/; go through "
                        "HttpServer/HttpClient"))

        if (kind == K.CALL_EXPR and cursor.spelling == "GenerateChunk"
                and not path_matches(vpath, FILL_ENTRY_ALLOWED)):
            out.append((line, "fill-entry-point",
                        "BatchRrKernel::GenerateChunk is the fill's "
                        "internal engine; generate samples through "
                        "FillCollection(FillRequest)"))

        if kind == K.CXX_FOR_RANGE_STMT and path_matches(
                vpath, UNORDERED_ITER_FORBIDDEN):
            children = list(cursor.get_children())
            if len(children) >= 2:
                range_expr = children[-2]
                if "unordered_" in type_spelling(range_expr.type):
                    out.append((line, "unordered-iteration",
                                "range-for over an unordered container in a "
                                "determinism-critical layer"))

        if kind == K.COMPOUND_STMT:
            for stmt in cursor.get_children():
                if stmt.kind == K.CALL_EXPR and here(stmt):
                    spelled = type_spelling(stmt.type)
                    if (spelled.endswith("subsim::Status")
                            or "subsim::Result<" in spelled):
                        out.append((stmt.location.line, "status-discarded",
                                    f"result of {stmt.spelling}() "
                                    f"({spelled}) is discarded"))

    walk(tu.cursor)
    # Findings from macro expansions can repeat per expansion site; dedupe.
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def gather_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(
                sorted(q for q in p.rglob("*") if q.suffix in CXX_SUFFIXES))
        elif p.suffix in CXX_SUFFIXES:
            files.append(p)
    return files


def analyze_file(
    path: pathlib.Path,
    status_functions: set[str],
    engine: str,
    cindex,
    compdb,
    root: pathlib.Path,
) -> list[Finding]:
    raw = read_text(path)
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    vpath = virtual_path(path, raw, root)

    triples = lexical_findings(code, vpath)
    if engine == "ast":
        # The ast engine resolves status-discarded from real return types;
        # everything it cannot see (headers outside the TU) is accepted.
        triples += ast_engine_findings(
            cindex, path, vpath, compile_args_for(path, compdb, root))
    else:
        triples += text_engine_findings(code, vpath, status_functions)

    findings: list[Finding] = []
    for lineno, rule, message in triples:
        nolint = find_nolint(raw_lines, lineno)
        if nolint is not None:
            rules, has_reason, marker_line = nolint
            if rule in rules or "*" in rules:
                if not has_reason:
                    findings.append(
                        Finding(path, marker_line, "nolint-needs-reason",
                                "SUBSIM-NOLINT must state a reason: "
                                "`// SUBSIM-NOLINT(rule): <why>`"))
                continue
        findings.append(Finding(path, lineno, rule, message))
    # A NEXTLINE marker shielding a line with several findings would report
    # nolint-needs-reason once per finding; dedupe, preserving order.
    return list(dict.fromkeys(findings))


def pick_engine(requested: str):
    """Returns (engine_name, cindex_module_or_None) or exits with code 2."""
    if requested == "text":
        return "text", None
    cindex = load_cindex()
    if cindex is not None:
        return "ast", cindex
    if requested == "ast":
        print("subsim_analyze: --engine=ast requires the clang python "
              "bindings and a loadable libclang", file=sys.stderr)
        raise SystemExit(2)
    print("subsim_analyze: libclang unavailable; using the textual engine",
          file=sys.stderr)
    return "text", None


def load_compdb(path: pathlib.Path | None):
    if path is None or not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def analyze_files(files: list[pathlib.Path], root: pathlib.Path,
                  engine: str, compdb_path: pathlib.Path | None):
    """Returns (engine_name, findings) for `files`. Status declarations are
    always gathered from src/ too: a name declared `void` in an unscanned
    header must still read as ambiguous, or every call to it is flagged."""
    engine, cindex = pick_engine(engine)
    compdb = load_compdb(compdb_path) if engine == "ast" else None
    status_functions = collect_status_functions(
        files + gather_files([root / "src"]))
    findings: list[Finding] = []
    for f in files:
        findings.extend(
            analyze_file(f, status_functions, engine, cindex, compdb, root))
    return engine, findings


def run_analyze(paths: list[pathlib.Path], root: pathlib.Path,
                engine: str, compdb_path: pathlib.Path | None) -> int:
    files = gather_files(paths)
    if not files:
        print(f"subsim_analyze: no C++ sources under {paths}",
              file=sys.stderr)
        return 2
    engine, findings = analyze_files(files, root, engine, compdb_path)
    for finding in findings:
        print(finding.render(root))
    if findings:
        print(f"subsim_analyze[{engine}]: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"subsim_analyze[{engine}]: OK ({len(files)} files clean)")
    return 0


EXPECT_RE = re.compile(r"ANALYZE-EXPECT:\s*(?P<rules>[\w,\- ]+)")


def run_self_test(fixtures: pathlib.Path, root: pathlib.Path,
                  engine: str, compdb_path: pathlib.Path | None) -> int:
    """Analyzes the fixture corpus and diffs findings against ANALYZE-EXPECT
    marks. Misses, false positives, uncovered rules, and fixtures without an
    ANALYZE-AS pragma all fail."""
    files = gather_files([fixtures])
    if not files:
        print(f"subsim_analyze: no fixtures under {fixtures}",
              file=sys.stderr)
        return 2

    expected: set[tuple[str, int, str]] = set()
    for f in files:
        raw = read_text(f)
        if not ANALYZE_AS_RE.search("\n".join(raw.splitlines()[:5])):
            print(f"{f}: fixture must declare `// ANALYZE-AS: <virtual "
                  "path>` in its first lines", file=sys.stderr)
            return 2
        for lineno, line in enumerate(raw.splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group("rules").split(","):
                    rule = rule.strip()
                    if rule not in ALL_RULES:
                        print(f"{f}:{lineno}: unknown rule in "
                              f"ANALYZE-EXPECT: {rule}", file=sys.stderr)
                        return 2
                    expected.add((f.as_posix(), lineno, rule))

    engine, findings = analyze_files(files, root, engine, compdb_path)
    actual = {(f.path.as_posix(), f.line, f.rule) for f in findings}

    missing = expected - actual
    unexpected = actual - expected
    for path, lineno, rule in sorted(missing):
        print(f"SELF-TEST MISS {path}:{lineno}: expected [{rule}]")
    for path, lineno, rule in sorted(unexpected):
        print(f"SELF-TEST FALSE-POSITIVE {path}:{lineno}: [{rule}]")

    covered = {rule for _, _, rule in expected}
    uncovered = [r for r in ALL_RULES if r not in covered]
    for rule in uncovered:
        print(f"SELF-TEST GAP: no fixture exercises [{rule}]")

    if missing or unexpected or uncovered:
        return 1
    print(f"subsim_analyze[{engine}] self-test: OK ({len(expected)} seeded "
          f"violations across {len(files)} fixtures, all {len(ALL_RULES)} "
          "rules)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="subsim_analyze.py",
        description="subsim repo-specific invariant checker")
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories to analyze")
    parser.add_argument("--engine", choices=("auto", "ast", "text"),
                        default="auto",
                        help="ast = libclang (semantic), text = built-in "
                             "lexer; auto prefers ast when available")
    parser.add_argument("--compile-commands", type=pathlib.Path,
                        default=None,
                        help="compile_commands.json for the ast engine "
                             "(default: build/compile_commands.json)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify against tools/lint_fixtures/")
    args = parser.parse_args(argv)

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    compdb = args.compile_commands
    if compdb is None:
        candidate = repo_root / "build" / "compile_commands.json"
        compdb = candidate if candidate.is_file() else None

    if args.self_test:
        return run_self_test(repo_root / "tools" / "lint_fixtures",
                             repo_root, args.engine, compdb)
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2
    return run_analyze([p.resolve() for p in args.paths], repo_root,
                       args.engine, compdb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
