#!/usr/bin/env python3
"""nashdb_lint: NashDB's project-contract static gates (DESIGN.md §14).

Generic tooling (clang-tidy, -Werror=thread-safety, [[nodiscard]]) checks
generic contracts. This tool encodes the contracts that are specific to
this reproduction — the invariants every golden test, TSan pass, and
scenario SLO gate silently relies on — so a regression is caught at lint
time instead of by a flaky golden diff three PRs later:

  det-source            Simulated-time code (all of src/ except the
                        committed wall-clock allowlist) must not read
                        steady_clock / system_clock /
                        high_resolution_clock / std::rand /
                        random_device / hardware_concurrency. Simulated
                        time comes from ClusterSim; randomness from the
                        seeded common/random.h Rng. A wall clock or an
                        ambient RNG in the pipeline breaks bit-identical
                        replay (the §10/§12 golden contracts).
  det-unordered-iter    No range-for iteration over std::unordered_*
                        containers in src/: unordered iteration order is
                        implementation-defined, so any fold over it is
                        nondeterministic. Use std::map / sorted vectors
                        (the codebase already does).
  hot-alloc             Functions marked NASHDB_HOT
                        (common/thread_annotations.h) — the steady-state
                        query path: RouteBatchInto and its router cores /
                        ResolveBatchInto / WaitView, the data plane's
                        per-read commit and the SPSC ring ops; and the
                        control-plane kernels: the greedy split search,
                        the dense Hungarian's row step and the sparse
                        solver's heap, relax and augment — must
                        not allocate: no `new`,
                        no make_unique/make_shared, no std::string
                        construction, no container growth calls. The §10
                        contract is "the steady state allocates nothing";
                        deliberate appends into caller-reserved capacity
                        carry an ALLOW with the reason.
  lock-unguarded-mutex  Every Mutex / SharedMutex member must be named by
                        at least one NASHDB_GUARDED_BY /
                        NASHDB_PT_GUARDED_BY in the same class — a mutex
                        guarding nothing is either dead weight or, worse,
                        a field someone forgot to annotate (and Clang's
                        analysis then never checks it).
  lock-global-mutable   Namespace-scope mutable, non-const, non-atomic
                        variables in src/ are flagged: shared mutable
                        globals bypass both the thread-safety analysis
                        and the determinism story.
  status-discard        No `(void)`-cast discard of a call to a function
                        returning Status / Result<> outside tests/.
                        [[nodiscard]] + -Werror=unused-result force the
                        *implicit* case; this closes the explicit
                        suppression loophole.
  inc-guard             Every header carries `#pragma once` or a classic
                        #ifndef/#define include guard.
  inc-cycle             The quoted-include graph over src/, tools/,
                        bench/ must be acyclic.
  bad-allow             A NASHDB_LINT_ALLOW comment must name a known
                        rule and give a reason after the colon — a
                        reason-less escape hatch is not an audit trail.

Escape hatch (same line or the line directly above the finding):

    // NASHDB_LINT_ALLOW(rule-id): reason why this site is legitimate

Suppressed findings are still recorded (with their reasons) in the JSON
report, so every exception stays queryable.

Usage:
    tools/nashdb_lint.py [--root DIR] [--json PATH] [--list-rules] [-q]

Exit codes: 0 clean, 1 findings, 2 usage/internal error. Output is
deterministic: files are discovered by directory walk (no git, no mtime),
every list is sorted, the JSON has sorted keys and no timestamps —
bit-identical across runs by construction (pinned by the lint self-test).

Stdlib-only; no clang, no compile_commands.json. The sixth project gate —
header self-containment — is the generated-TU CMake target
`header_tu_gate` (cmake/header_tu_gate.cmake), not a rule here: proving a
header compiles standalone needs a compiler, not a tokenizer.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------

RULES = {
    "det-source": (
        "simulated-time code must not read wall clocks or nondeterministic "
        "sources (steady_clock, system_clock, high_resolution_clock, "
        "std::rand, random_device, hardware_concurrency)"
    ),
    "det-unordered-iter": (
        "no range-for iteration over std::unordered_* containers "
        "(iteration order is implementation-defined)"
    ),
    "hot-alloc": (
        "no allocation inside NASHDB_HOT functions (new, make_unique/"
        "make_shared, std::string construction, container growth calls)"
    ),
    "lock-unguarded-mutex": (
        "every Mutex/SharedMutex member must be named by at least one "
        "NASHDB_GUARDED_BY / NASHDB_PT_GUARDED_BY in the same class"
    ),
    "lock-global-mutable": (
        "no namespace-scope mutable non-const, non-atomic variables"
    ),
    "status-discard": (
        "no (void)-cast discard of a Status/Result<>-returning call "
        "outside tests/"
    ),
    "inc-guard": (
        "every header needs #pragma once or an #ifndef/#define guard"
    ),
    "inc-cycle": "the quoted-include graph must be acyclic",
    "bad-allow": (
        "NASHDB_LINT_ALLOW must name a known rule and give a reason "
        "after the colon"
    ),
}

# Files (relative to the root) where wall-clock reads are legitimate: the
# driver and system measure *real* build/plan latency for the reconfig
# stall accounting (DESIGN.md §12), and the metrics registry timestamps
# traces. Everything else in src/ lives in simulated time.
WALLCLOCK_ALLOWLIST = frozenset(
    {
        "src/engine/driver.cc",
        "src/engine/nashdb_system.cc",
        "src/common/metrics.h",
        "src/common/metrics.cc",
    }
)

SOURCE_DIRS = ("src", "tools", "bench")
SOURCE_EXTS = (".h", ".cc")

ALLOW_RE = re.compile(r"NASHDB_LINT_ALLOW\s*\(\s*([A-Za-z-]*)\s*\)(.*)")

# --------------------------------------------------------------------------
# Lexing: strip comments and string/char literal contents, preserving the
# line structure and column offsets so findings point at real positions.
# --------------------------------------------------------------------------


def strip_code(lines):
    """Returns stripped copies of `lines`: comment text and string/char
    literal contents are blanked with spaces (delimiters kept), lengths
    and line count preserved."""
    out = []
    state = "code"  # code | block | string | char
    for line in lines:
        buf = []
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if state == "code":
                if c == "/" and nxt == "/":
                    buf.append(" " * (n - i))
                    i = n
                elif c == "/" and nxt == "*":
                    buf.append("  ")
                    i += 2
                    state = "block"
                elif c == '"':
                    buf.append(c)
                    i += 1
                    state = "string"
                elif c == "'":
                    buf.append(c)
                    i += 1
                    state = "char"
                else:
                    buf.append(c)
                    i += 1
            elif state == "block":
                if c == "*" and nxt == "/":
                    buf.append("  ")
                    i += 2
                    state = "code"
                else:
                    buf.append(" ")
                    i += 1
            elif state == "string":
                if c == "\\":
                    buf.append("  ")
                    i += 2
                elif c == '"':
                    buf.append(c)
                    i += 1
                    state = "code"
                else:
                    buf.append(" ")
                    i += 1
            else:  # char
                if c == "\\":
                    buf.append("  ")
                    i += 2
                elif c == "'":
                    buf.append(c)
                    i += 1
                    state = "code"
                else:
                    buf.append(" ")
                    i += 1
        # Unterminated string/char at end of line: treat as closed (a
        # multi-line raw string would otherwise eat the file; the codebase
        # has none, and a tokenizer must stay robust to one).
        if state in ("string", "char"):
            state = "code"
        out.append("".join(buf))
    return out


class SourceFile:
    def __init__(self, root, rel):
        self.rel = rel
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        self.raw = text.split("\n")
        self.code = strip_code(self.raw)

    def allow_on(self, line_no, rule):
        """An ALLOW for `rule` on this line or the line directly above.
        Returns the reason string, or None."""
        for ln in (line_no, line_no - 1):
            if 1 <= ln <= len(self.raw):
                m = ALLOW_RE.search(self.raw[ln - 1])
                if m and m.group(1) == rule:
                    reason = m.group(2).lstrip(":").strip()
                    return reason if reason else ""
        return None


# --------------------------------------------------------------------------
# Finding collection with escape-hatch handling
# --------------------------------------------------------------------------


class Report:
    def __init__(self):
        self.findings = []
        self.suppressed = []

    def add(self, sf, line_no, rule, message):
        reason = sf.allow_on(line_no, rule)
        entry = {
            "rule": rule,
            "file": sf.rel,
            "line": line_no,
            "message": message,
        }
        if reason is None:
            self.findings.append(entry)
        elif reason == "":
            entry["message"] = (
                "NASHDB_LINT_ALLOW(%s) without a reason after the colon "
                "(suppressing: %s)" % (rule, message)
            )
            entry["rule"] = "bad-allow"
            self.findings.append(entry)
        else:
            entry["reason"] = reason
            self.suppressed.append(entry)


def check_allow_comments(sf, report):
    """Malformed escape hatches: unknown rule names. (A reason-less ALLOW
    is reported at its use site by Report.add.)"""
    for i, raw in enumerate(sf.raw, start=1):
        m = ALLOW_RE.search(raw)
        if m and m.group(1) not in RULES:
            report.findings.append(
                {
                    "rule": "bad-allow",
                    "file": sf.rel,
                    "line": i,
                    "message": "NASHDB_LINT_ALLOW names unknown rule '%s'"
                    % m.group(1),
                }
            )


# --------------------------------------------------------------------------
# Rule: det-source
# --------------------------------------------------------------------------

DET_TOKEN_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock|random_device"
    r"|hardware_concurrency)\b|\bstd\s*::\s*(rand)\s*\("
)


def check_det_source(sf, report):
    if not sf.rel.startswith("src/") or sf.rel in WALLCLOCK_ALLOWLIST:
        return
    for i, code in enumerate(sf.code, start=1):
        for m in DET_TOKEN_RE.finditer(code):
            token = m.group(1) or ("std::" + m.group(2))
            report.add(
                sf,
                i,
                "det-source",
                "'%s' in simulated-time code: use ClusterSim time / the "
                "seeded common/random.h Rng (wall-clock allowlist: %s)"
                % (token, ", ".join(sorted(WALLCLOCK_ALLOWLIST))),
            )


# --------------------------------------------------------------------------
# Rule: det-unordered-iter
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+"
    r"([A-Za-z_]\w*)\s*[;={(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^:;()]*[^:]:(?!:)\s*([^)]+)\)")


def check_det_unordered_iter(sf, report):
    if not sf.rel.startswith("src/"):
        return
    declared = set()
    for code in sf.code:
        for m in UNORDERED_DECL_RE.finditer(code):
            declared.add(m.group(1))
    for i, code in enumerate(sf.code, start=1):
        for m in RANGE_FOR_RE.finditer(code):
            expr = m.group(1).strip()
            head = re.match(r"([A-Za-z_]\w*)", expr)
            nondet = "unordered_" in expr or (
                head and head.group(1) in declared
            )
            if nondet:
                report.add(
                    sf,
                    i,
                    "det-unordered-iter",
                    "range-for over std::unordered_* container '%s': "
                    "iteration order is implementation-defined; fold over "
                    "a sorted view instead" % expr,
                )


# --------------------------------------------------------------------------
# Rule: hot-alloc
# --------------------------------------------------------------------------

HOT_BANNED = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"\bstd\s*::\s*string\s*[({]"), "std::string construction"),
    (re.compile(r"\bstd\s*::\s*to_string\s*\("), "std::to_string"),
    (
        re.compile(
            r"(?:\.|->)\s*(push_back|emplace_back|emplace|insert|resize"
            r"|reserve|assign|append)\s*\("
        ),
        "container growth",
    ),
]


def hot_regions(sf):
    """Yields (marker_line, body_start_idx, body_end_idx) for every
    NASHDB_HOT-marked function *definition* (markers on pure declarations
    — `;` before any `{` — are skipped), as (line, char) positions over
    the stripped text. Regions span from the opening brace to its match."""
    flat = "\n".join(sf.code)
    for m in re.finditer(r"\bNASHDB_HOT\b", flat):
        # Skip the macro's own definition line.
        line_start = flat.rfind("\n", 0, m.start()) + 1
        if flat[line_start:m.start()].lstrip().startswith("#"):
            continue
        i = m.end()
        depth = 0
        body_start = -1
        while i < len(flat):
            c = flat[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == ";" and depth == 0:
                break  # declaration only
            elif c == "{" and depth == 0:
                body_start = i
                break
            i += 1
        if body_start < 0:
            continue
        brace = 0
        j = body_start
        while j < len(flat):
            if flat[j] == "{":
                brace += 1
            elif flat[j] == "}":
                brace -= 1
                if brace == 0:
                    break
            j += 1
        marker_line = flat.count("\n", 0, m.start()) + 1
        yield marker_line, body_start, j, flat


def check_hot_alloc(sf, report):
    if "NASHDB_HOT" not in "\n".join(sf.code):
        return
    for _marker, start, end, flat in hot_regions(sf):
        body = flat[start : end + 1]
        body_line0 = flat.count("\n", 0, start) + 1
        for pat, what in HOT_BANNED:
            for m in pat.finditer(body):
                line_no = body_line0 + body.count("\n", 0, m.start())
                report.add(
                    sf,
                    line_no,
                    "hot-alloc",
                    "%s inside a NASHDB_HOT function: the steady-state "
                    "query path and the control-plane kernels must not "
                    "allocate (DESIGN.md §10, §15.6)" % what,
                )


# --------------------------------------------------------------------------
# Scope tracking (shared by the lock rules)
# --------------------------------------------------------------------------

CLASS_HEAD_RE = re.compile(r"\b(class|struct)\s+(?:NASHDB_\w+\s*(?:\([^)]*\)\s*)?)?([A-Za-z_]\w*)[^;{]*$")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\b")
ENUM_HEAD_RE = re.compile(r"\benum\b")


def scopes_of(sf):
    """One pass over the stripped text classifying every brace scope.
    Returns (scope_at_line_open, scopes) where scopes is a list of dicts
    {kind, name, open_line, close_line, parent} and scope_of(line) can be
    answered by picking the innermost open scope at that line."""
    flat = "\n".join(sf.code)
    scopes = []
    stack = []  # indices into scopes
    header_start = 0
    line = 1
    opens = []  # (line, scope_index) for mapping
    i = 0
    while i < len(flat):
        c = flat[i]
        if c == "\n":
            line += 1
        elif c in ";}":
            header_start = i + 1
            if c == "}" and stack:
                scopes[stack.pop()]["close_line"] = line
        elif c == "{":
            header = flat[header_start:i]
            kind = "block"
            name = ""
            if NAMESPACE_HEAD_RE.search(header):
                kind = "namespace"
            elif ENUM_HEAD_RE.search(header):
                kind = "enum"
            else:
                cm = CLASS_HEAD_RE.search(header)
                if cm:
                    kind = "class"
                    name = cm.group(2)
            scopes.append(
                {
                    "kind": kind,
                    "name": name,
                    "open_line": line,
                    "close_line": len(sf.code),
                    "parent": stack[-1] if stack else -1,
                }
            )
            stack.append(len(scopes) - 1)
            opens.append((i, len(scopes) - 1))
            header_start = i + 1
        i += 1
    return scopes


def innermost_scope(scopes, line_no):
    """Innermost scope containing line_no (open_line < line <= close_line
    for bodies; members on the open/close lines count as inside)."""
    best = None
    for idx, sc in enumerate(scopes):
        if sc["open_line"] <= line_no <= sc["close_line"]:
            if best is None or sc["open_line"] >= scopes[best]["open_line"]:
                best = idx
    return best


# --------------------------------------------------------------------------
# Rule: lock-unguarded-mutex
# --------------------------------------------------------------------------

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:nashdb::)?(Mutex|SharedMutex)\s+"
    r"([A-Za-z_]\w*)\s*;"
)


def check_lock_unguarded_mutex(sf, report):
    if not sf.rel.startswith("src/"):
        return
    scopes = scopes_of(sf)
    for i, code in enumerate(sf.code, start=1):
        m = MUTEX_MEMBER_RE.match(code)
        if not m:
            continue
        idx = innermost_scope(scopes, i)
        if idx is None or scopes[idx]["kind"] != "class":
            continue
        sc = scopes[idx]
        guarded = re.compile(
            r"NASHDB_(?:PT_)?GUARDED_BY\(\s*%s\s*\)" % re.escape(m.group(2))
        )
        hit = any(
            guarded.search(sf.code[ln])
            for ln in range(sc["open_line"] - 1, sc["close_line"])
        )
        if not hit:
            report.add(
                sf,
                i,
                "lock-unguarded-mutex",
                "%s member '%s' of %s is not named by any "
                "NASHDB_GUARDED_BY / NASHDB_PT_GUARDED_BY in the class: "
                "annotate the fields it protects (or it is dead weight)"
                % (m.group(1), m.group(2), sc["name"] or "<anonymous>"),
            )


# --------------------------------------------------------------------------
# Rule: lock-global-mutable
# --------------------------------------------------------------------------

GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:static\s+|inline\s+|thread_local\s+)*"
    r"[A-Za-z_][\w:<>,\s*&]*?\s+[A-Za-z_]\w*"
    r"(?:\s*\[[^\]]*\])?\s*(?:=[^;]*)?;\s*$"
)
GLOBAL_EXCLUDE_RE = re.compile(
    r"\b(const|constexpr|constinit|using|typedef|extern|atomic|class"
    r"|struct|enum|union|friend|namespace|operator|template|return"
    r"|static_assert)\b|[()]"
)


def check_lock_global_mutable(sf, report):
    if not sf.rel.startswith("src/"):
        return
    scopes = scopes_of(sf)
    for i, code in enumerate(sf.code, start=1):
        if not code.strip() or code.lstrip().startswith("#"):
            continue
        idx = innermost_scope(scopes, i)
        if idx is not None and scopes[idx]["kind"] != "namespace":
            continue
        if idx is not None and scopes[idx]["open_line"] == i:
            continue  # the `namespace foo {` line itself
        if GLOBAL_DECL_RE.match(code) and not GLOBAL_EXCLUDE_RE.search(code):
            report.add(
                sf,
                i,
                "lock-global-mutable",
                "namespace-scope mutable variable: shared mutable globals "
                "bypass the thread-safety analysis and the determinism "
                "contract; make it const/constexpr, a std::atomic, or a "
                "function-local static behind a locked accessor",
            )


# --------------------------------------------------------------------------
# Rule: status-discard
# --------------------------------------------------------------------------

FALLIBLE_DECL_RE = re.compile(
    r"\b(?:Status|Result<[^;{}()]{1,120}>)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)
DECL_NAME_BLOCKLIST = frozenset({"if", "while", "for", "switch", "return"})


def harvest_fallible_names(files):
    names = set()
    for sf in files:
        if not sf.rel.startswith("src/"):
            continue
        for code in sf.code:
            for m in FALLIBLE_DECL_RE.finditer(code):
                if m.group(1) not in DECL_NAME_BLOCKLIST:
                    names.add(m.group(1))
    return names


def check_status_discard(sf, report, fallible_names, discard_re):
    if sf.rel.startswith("tests/") or discard_re is None:
        return
    for i, code in enumerate(sf.code, start=1):
        m = discard_re.search(code)
        if m:
            report.add(
                sf,
                i,
                "status-discard",
                "(void)-discard of '%s(...)', which returns "
                "Status/Result<>: handle the error or propagate it "
                "(NASHDB_RETURN_IF_ERROR); tests/ may discard" % m.group(1),
            )


# --------------------------------------------------------------------------
# Rule: inc-guard
# --------------------------------------------------------------------------


def check_inc_guard(sf, report):
    if not sf.rel.endswith(".h"):
        return
    head = [c for c in sf.code[:80]]
    ifndef = None
    for code in head:
        s = code.strip()
        if not s:
            continue
        if re.match(r"#\s*pragma\s+once\b", s):
            return
        m = re.match(r"#\s*ifndef\s+(\w+)", s)
        if m and ifndef is None:
            ifndef = m.group(1)
            continue
        if ifndef is not None and re.match(
            r"#\s*define\s+%s\b" % re.escape(ifndef), s
        ):
            return
    report.add(
        sf,
        1,
        "inc-guard",
        "header has neither #pragma once nor an #ifndef/#define include "
        "guard in its first 80 lines",
    )


# --------------------------------------------------------------------------
# Rule: inc-cycle
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_inc_cycle(files, report):
    by_rel = {sf.rel: sf for sf in files}
    # Edges between *tracked* files; quoted includes resolve against src/
    # (the project convention) and against the includer's own directory.
    edges = {}  # rel -> sorted list of (target_rel, line_no)
    for sf in files:
        out = []
        for i, code in enumerate(sf.code, start=1):
            # The stripped line proves this is a live include directive
            # (not one inside a comment), but stripping also blanks the
            # string literal's contents — read the path from the raw line.
            if not INCLUDE_RE.match(code):
                continue
            m = INCLUDE_RE.match(sf.raw[i - 1])
            if not m:
                continue
            inc = m.group(1)
            for cand in (
                "src/" + inc,
                os.path.normpath(
                    os.path.join(os.path.dirname(sf.rel), inc)
                ),
            ):
                if cand in by_rel and cand != sf.rel:
                    out.append((cand, i))
                    break
        edges[sf.rel] = sorted(set(out))

    # Iterative DFS over headers, collecting each elementary cycle once in
    # canonical form (rotated so the lexicographically smallest file
    # leads). Deterministic: nodes and edges are visited in sorted order.
    seen_cycles = set()
    color = {}  # 0/absent = white, 1 = on stack, 2 = done

    def visit(start):
        stack = [(start, iter(edges.get(start, ())))]
        path = [start]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for target, _line in it:
                if color.get(target, 0) == 1:
                    k = path.index(target)
                    cycle = path[k:]
                    rot = cycle.index(min(cycle))
                    canon = tuple(cycle[rot:] + cycle[:rot])
                    seen_cycles.add(canon)
                elif color.get(target, 0) == 0:
                    color[target] = 1
                    path.append(target)
                    stack.append((target, iter(edges.get(target, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()

    for rel in sorted(edges):
        if color.get(rel, 0) == 0:
            visit(rel)

    for canon in sorted(seen_cycles):
        first = canon[0]
        nxt = canon[1] if len(canon) > 1 else canon[0]
        line_no = 1
        for target, ln in edges.get(first, ()):
            if target == nxt:
                line_no = ln
                break
        report.add(
            by_rel[first],
            line_no,
            "inc-cycle",
            "include cycle: %s" % " -> ".join(canon + (canon[0],)),
        )


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def discover(root):
    rels = []
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    rels.append(
                        os.path.relpath(os.path.join(dirpath, fn), root)
                        .replace(os.sep, "/")
                    )
    return sorted(rels)


def run(root, json_path, quiet):
    rels = discover(root)
    files = [SourceFile(root, rel) for rel in rels]
    report = Report()

    fallible = harvest_fallible_names(files)
    discard_re = None
    if fallible:
        discard_re = re.compile(
            r"\(\s*void\s*\)\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*(%s)\s*\("
            % "|".join(sorted(re.escape(n) for n in fallible))
        )

    for sf in files:
        check_allow_comments(sf, report)
        check_det_source(sf, report)
        check_det_unordered_iter(sf, report)
        check_hot_alloc(sf, report)
        check_lock_unguarded_mutex(sf, report)
        check_lock_global_mutable(sf, report)
        check_status_discard(sf, report, fallible, discard_re)
        check_inc_guard(sf, report)
    check_inc_cycle(files, report)

    key = lambda e: (e["file"], e["line"], e["rule"], e["message"])
    report.findings.sort(key=key)
    report.suppressed.sort(key=key)

    by_rule = {}
    for e in report.findings:
        by_rule[e["rule"]] = by_rule.get(e["rule"], 0) + 1

    doc = {
        "tool": "nashdb_lint",
        "version": 1,
        "files_scanned": len(files),
        "rules": [
            {"id": rid, "summary": RULES[rid]} for rid in sorted(RULES)
        ],
        "findings": report.findings,
        "suppressed": report.suppressed,
        "counts": {
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "by_rule": by_rule,
        },
    }
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if json_path == "-":
        sys.stdout.write(payload)
    elif json_path:
        # An unwritable report path is an internal error (exit 2), never
        # exit 1 — that code is the findings contract callers gate on.
        try:
            parent = os.path.dirname(json_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(json_path, "w", encoding="utf-8") as f:
                f.write(payload)
        except OSError as exc:
            print(
                "nashdb_lint: cannot write report %s: %s" % (json_path, exc),
                file=sys.stderr,
            )
            return 2

    text_out = sys.stderr if json_path == "-" else sys.stdout
    for e in report.findings:
        print(
            "%s:%d: %s: %s" % (e["file"], e["line"], e["rule"], e["message"]),
            file=text_out,
        )
    if not quiet:
        print(
            "nashdb_lint: %d files, %d findings, %d suppressed"
            % (len(files), len(report.findings), len(report.suppressed)),
            file=text_out,
        )
    return 1 if report.findings else 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="nashdb_lint.py",
        description="NashDB project-contract lint gates (DESIGN.md §14).",
    )
    ap.add_argument(
        "--root",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."),
        help="tree to lint (default: the repo this script lives in); "
        "src/, tools/, bench/ below it are scanned",
    )
    ap.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the machine-readable report to PATH ('-' = stdout, "
        "text report then goes to stderr)",
    )
    ap.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid in sorted(RULES):
            print("%-22s %s" % (rid, RULES[rid]))
        return 0

    root = os.path.normpath(args.root)
    if not os.path.isdir(root):
        print("nashdb_lint: no such root: %s" % root, file=sys.stderr)
        return 2
    return run(root, args.json, args.quiet)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
