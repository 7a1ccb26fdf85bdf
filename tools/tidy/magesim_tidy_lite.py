#!/usr/bin/env python3
"""magesim-tidy-lite: toolchain-free fallback for the magesim clang-tidy
checks.

Implements heuristic (lexical) versions of the five magesim-* checks so the
project's invariants are enforced even on machines without LLVM/Clang dev
packages — including this repo's plain-gcc CI legs and the ctest lint suite:

  magesim-no-wallclock          wall-clock/entropy sources in sim code
  magesim-unordered-iteration   unordered-container iteration feeding
                                trace/metrics/report/victim sinks
  magesim-coroutine-ref-capture by-ref lambda captures / ref-or-pointer
                                params live across co_await
  magesim-hotpath-alloc         allocation inside MAGESIM_HOT_PATH functions
  magesim-guardedby-static      GuardedBy<T>.Locked() without a lexical lock
                                acquisition in scope; Unsafe() without a
                                justification comment

The authoritative implementations live in tools/tidy/*.cc (the clang-tidy
plugin); this file mirrors their defaults and their suppression syntax:

  <code>  // magesim-lint: allow(<slug>[, <slug>...]): <reason>

on the flagged line or the line directly above, plus clang-tidy style
NOLINT / NOLINT(magesim-<slug>) / NOLINTNEXTLINE.

Output mimics clang-tidy's normalized finding lines so
tools/run_clang_tidy.sh-style diff gating works unchanged:

  path:line:col: warning: <message> [magesim-<slug>]

Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

import argparse
import bisect
import os
import re
import sys

CHECKS = (
    "no-wallclock",
    "unordered-iteration",
    "coroutine-ref-capture",
    "hotpath-alloc",
    "guardedby-static",
)

# Mirrors NoWallclockCheck's AllowedFilesRegex default.
WALLCLOCK_ALLOWED_FILES = re.compile(
    r"(^|/)(bench|tests|tools|examples)/|perf_common")

# Mirrors UnorderedIterationCheck's SinkRegex default (callee names). \b not
# a stricter lookbehind: sinks are usually member calls (`out->push_back(`).
SINK_RE = re.compile(
    r"\b(?:TraceEmit|Emit\w*|Record|Export\w*|Report\w*|Print\w*|"
    r"Write\w*|KV|String|AppendRow|push_back|emplace_back|insert|emplace|"
    r"SelectVictims?|IsolateVictims?)\s*\(")

# Mirrors CoroutineRefCaptureCheck's LongLivedTypes default (machine-lifetime
# classes: built before the engine runs, torn down after it drains), plus
# `char` (string literals live forever).
LONG_LIVED_TYPES = {
    "Engine", "Topology", "TlbShootdownManager", "RdmaNic", "Kernel",
    "FarMemoryMachine", "TenancyManager", "ResilienceManager", "MemoryNode",
    "FleetManager", "RebuildDriver", "AppThread", "Workload",
    "MachineParams", "KernelConfig", "SimMutex", "SimEvent", "SimSemaphore",
    "MetricsRegistry", "MetricsSampler", "SpanTracer",
    "PageFrame", "PageTable", "PageAccounting", "PageAllocator", "FramePool",
    "BuddyAllocator", "SwapAllocator", "VmaResolver", "Prefetcher",
    "CircuitBreaker", "MemCgroup", "LockAnalyzer", "Rng", "ZipfGenerator",
    "FaultInjector", "KernelStats", "char",
}

# Mirrors HotpathAllocCheck's AllowedContainersRegex: magesim structures
# whose growth is amortized/pre-reserved by contract. The lite checker can't
# resolve receiver types, so it exempts receivers *declared in the same file*
# with one of these types.
ALLOWED_CONTAINER_TYPES = (
    "RingQueue", "DAryHeap", "IntrusiveList", "VpnSet", "SlabAllocator",
    "FixedVector", "Histogram", "Breakdown",
)

GROWTH_METHODS = (
    "push_back", "emplace_back", "emplace", "insert", "resize", "reserve",
    "append", "push_front",
)


class Finding:
    def __init__(self, path, line, col, slug, message):
        self.path = path
        self.line = line
        self.col = col
        self.slug = slug
        self.message = message

    def render(self):
        return "%s:%d:%d: warning: %s [magesim-%s]" % (
            self.path, self.line, self.col, self.message, self.slug)

    def normalized(self):
        return "%s:%d [magesim-%s]" % (self.path, self.line, self.slug)


def strip_code(text):
    """Blanks comments and string/char literal contents, preserving offsets
    and newlines exactly."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == "R" and nxt == '"' and (i == 0 or not text[i - 1].isalnum()):
            m = re.match(r'R"([^(\s"]{0,16})\(', text[i:])
            if m is None:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j < 0 else j
            for k in range(i, j + len(close)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + len(close)
        elif c == '"' or c == "'":
            # char literal heuristic: skip digit separators like 1'000.
            if c == "'" and i > 0 and text[i - 1].isdigit():
                i += 1
                continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c or text[j] == "\n":
                    break
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n - 1) + 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path, text):
        self.path = path
        self.raw = text
        self.code = strip_code(text)
        self.raw_lines = text.split("\n")
        self.line_starts = [0]
        for m in re.finditer("\n", text):
            self.line_starts.append(m.end())
        self._functions = None

    def line_of(self, offset):
        return bisect.bisect_right(self.line_starts, offset)

    def col_of(self, offset):
        line = self.line_of(offset)
        return offset - self.line_starts[line - 1] + 1

    def raw_line(self, lineno):
        if 1 <= lineno <= len(self.raw_lines):
            return self.raw_lines[lineno - 1]
        return ""

    def allowed(self, lineno, slug):
        """magesim-lint allow on `lineno` or the contiguous comment block
        directly above it (multi-line justifications); NOLINT on `lineno` /
        NOLINTNEXTLINE on the line above. Mirrors LintAllow.h."""

        def allow_in(text):
            m = re.search(r"magesim-lint:\s*allow\(([^)]*)\)", text)
            if m is None:
                return False
            slugs = [s.strip() for s in m.group(1).split(",")]
            return slug in slugs or "all" in slugs

        if allow_in(self.raw_line(lineno)):
            return True
        probe = lineno - 1
        while probe >= 1:
            text = self.raw_line(probe)
            if allow_in(text):
                return True
            if not text.lstrip().startswith("//"):
                break
            probe -= 1
        for lineno2, tag in ((lineno, "NOLINT"), (lineno - 1, "NOLINTNEXTLINE")):
            text = self.raw_line(lineno2)
            m = re.search(tag + r"(\(([^)]*)\))?", text)
            if m is not None:
                if m.group(2) is None:
                    return True
                names = [s.strip() for s in m.group(2).split(",")]
                if ("magesim-" + slug) in names or "magesim-*" in names:
                    return True
        return False

    def functions(self):
        """Brace-matched candidate function regions:
        (header_start, header, params, body_start, body_end)."""
        if self._functions is not None:
            return self._functions
        regions = []
        stack = []
        boundary = 0
        code = self.code
        i, n = 0, len(code)
        while i < n:
            c = code[i]
            if c == "{":
                stack.append((i, boundary))
                boundary = i + 1
            elif c == "}":
                if stack:
                    start, hdr_start = stack.pop()
                    regions.append((hdr_start, start, i))
                boundary = i + 1
            elif c == ";":
                boundary = i + 1
            i += 1
        funcs = []
        for hdr_start, body_start, body_end in regions:
            header = code[hdr_start:body_start]
            params = _function_params(header)
            if params is None:
                continue
            funcs.append((hdr_start, header, params, body_start, body_end))
        funcs.sort(key=lambda f: f[3])
        self._functions = funcs
        return funcs

    def enclosing_function(self, offset):
        best = None
        for f in self.functions():
            if f[3] < offset <= f[4]:
                if best is None or f[3] > best[3]:
                    best = f
        return best


_NOT_FUNCTION_HEAD = re.compile(
    r"^\s*(if|for|while|switch|catch|do|else|return|struct|class|namespace|"
    r"union|enum|case|default|new|delete|co_return|co_yield|using|typedef|"
    r"static_assert|public|private|protected)\b")


def _function_params(header):
    """Parameter-list text if `header` looks like a function definition
    header, else None."""
    h = header.strip()
    # The first member after an access specifier has `public:` etc. in its
    # header (no ';'/'{' boundary in between); peel the label off.
    h = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+\s*", "", h)
    if not h or "(" not in h:
        return None
    if _NOT_FUNCTION_HEAD.match(h):
        return None
    # Lambdas are handled separately.
    if re.match(r"^\[[^\[]", h):
        return None
    # Initializer-ish headers: `= {`, `return x ? a : b`, designated inits.
    if h.endswith("=") or h.endswith(",") or h.endswith("("):
        return None
    # Find the last top-level '(' ... ')' group; the header may end with
    # qualifiers (const, noexcept, override, -> T, : mem-init list).
    depth = 0
    close = -1
    for i in range(len(h) - 1, -1, -1):
        c = h[i]
        if c == ")":
            if depth == 0:
                close = i
            depth += 1
        elif c == "(":
            depth -= 1
            if depth == 0:
                after = h[close + 1:]
                if re.fullmatch(
                        r"(\s|const|noexcept|override|final|mutable|&&?|"
                        r"->\s*[\w:<>,&*\s]+|:\s*[^{]*)*", after):
                    before = h[:i].rstrip()
                    # Need an identifier (function name) right before '('.
                    if re.search(r"[\w>\]]$", before) and not before.endswith(
                            "operator"):
                        return h[i + 1:close]
                return None
    return None


def split_params(params):
    out, depth, cur = [], 0, []
    for c in params:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        out.append("".join(cur))
    return [p.strip() for p in out if p.strip()]


def match_angle(text, open_idx):
    """Offset just past the '>' matching the '<' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_brace(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


# --- Check 1: magesim-no-wallclock -----------------------------------------

WALLCLOCK_RES = (
    re.compile(r"std\s*::\s*chrono\s*::\s*"
               r"(system_clock|steady_clock|high_resolution_clock)"),
    re.compile(r"std\s*::\s*random_device|(?<![\w.:>])random_device\s+\w"),
    re.compile(r"(?<![\w.>])(time|clock|gettimeofday|clock_gettime|"
               r"localtime|gmtime|rand|srand|random|drand48|getentropy)"
               r"\s*\("),
)


# A banned name preceded by `identifier whitespace` is a declaration
# (`uint64_t time(uint64_t)`), not a call — unless the identifier is a
# keyword that can precede a call expression. The plugin only matches
# callExpr, so declarations must not fire here either.
_DECLARATIONISH_RE = re.compile(r"([A-Za-z_]\w*)[ \t]+$")
_CALL_KEYWORDS = {"return", "co_return", "co_yield", "co_await", "case",
                  "throw", "else", "do", "and", "or", "not"}


def check_no_wallclock(sf, findings):
    if WALLCLOCK_ALLOWED_FILES.search(sf.path):
        return
    for regex in WALLCLOCK_RES:
        for m in regex.finditer(sf.code):
            if regex is WALLCLOCK_RES[-1]:
                pre = sf.code[max(0, m.start() - 80):m.start()]
                dm = _DECLARATIONISH_RE.search(pre)
                if dm is not None and dm.group(1) not in _CALL_KEYWORDS:
                    continue
            line = sf.line_of(m.start())
            if sf.allowed(line, "no-wallclock"):
                continue
            what = (m.group(1) if m.lastindex else m.group(0)).strip()
            findings.append(Finding(
                sf.path, line, sf.col_of(m.start()), "no-wallclock",
                "wall-clock/entropy source '%s' in simulation code; use "
                "SimTime (Engine::now) or the seeded magesim::Rng" % what))


# --- Check 2: magesim-unordered-iteration ----------------------------------

UNORDERED_DECL_RE = re.compile(r"unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"(?<!\w)for\s*\(")


def unordered_names(sf):
    names = set()
    code = sf.code
    for m in UNORDERED_DECL_RE.finditer(code):
        open_idx = code.index("<", m.start())
        end = match_angle(code, open_idx)
        if end < 0:
            continue
        nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", code[end:])
        if nm is not None:
            names.add(nm.group(1))
    return names


def check_unordered_iteration(sf, findings):
    names = unordered_names(sf)
    code = sf.code
    for m in RANGE_FOR_RE.finditer(code):
        open_paren = code.index("(", m.start())
        depth, i = 0, open_paren
        close_paren = -1
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    close_paren = i
                    break
            i += 1
        if close_paren < 0:
            continue
        inside = code[open_paren + 1:close_paren]
        if ";" in inside or ":" not in inside:
            continue  # classic for / no range-for
        range_expr = inside.rsplit(":", 1)[1]
        hit = "unordered" in range_expr or any(
            re.search(r"(?<![\w.])%s\b" % re.escape(n), range_expr)
            for n in names)
        if not hit:
            continue
        # Loop body: block or single statement.
        rest = code[close_paren + 1:]
        stripped = rest.lstrip()
        if stripped.startswith("{"):
            body_open = close_paren + 1 + (len(rest) - len(stripped))
            body_close = match_brace(code, body_open)
            body = code[body_open:body_close] if body_close > 0 else ""
        else:
            semi = rest.find(";")
            body = rest[:semi] if semi >= 0 else rest
        sink = SINK_RE.search(body)
        if sink is None:
            continue
        line = sf.line_of(m.start())
        if sf.allowed(line, "unordered-iteration"):
            continue
        findings.append(Finding(
            sf.path, line, sf.col_of(m.start()), "unordered-iteration",
            "iteration over an unordered container feeds '%s' (trace/"
            "metrics/victim-selection sink); hash order leaks into output" %
            sink.group(0).rstrip("( \t")))


# --- Check 3: magesim-coroutine-ref-capture --------------------------------

LAMBDA_RE = re.compile(r"(?<![\w\])\]])\[([^\[\]]*)\]\s*"
                       r"(\([^()]*\))?\s*"
                       r"(?:mutable\s*|noexcept\s*|->\s*[\w:<>&*\s]+)?\{")


def check_coroutine_ref_capture(sf, findings):
    code = sf.code
    # Lambda coroutines with by-reference captures.
    for m in LAMBDA_RE.finditer(code):
        body_open = code.index("{", m.end() - 1)
        body_close = match_brace(code, body_open)
        if body_close < 0:
            continue
        body = code[body_open:body_close]
        if "co_await" not in body:
            continue
        if "&" not in m.group(1):
            continue
        line = sf.line_of(m.start())
        if sf.allowed(line, "coroutine-ref-capture"):
            continue
        findings.append(Finding(
            sf.path, line, sf.col_of(m.start()), "coroutine-ref-capture",
            "coroutine lambda captures by reference; captures may dangle "
            "after the first suspension"))
    # Reference/pointer parameters live across co_await.
    for hdr_start, header, params, body_start, body_end in sf.functions():
        body = code[body_start:body_end]
        aw = body.find("co_await")
        if aw < 0:
            continue
        after = body[aw:]
        for p in split_params(params):
            p_nodefault = p.split("=")[0].strip()
            if "&" not in p_nodefault and "*" not in p_nodefault:
                continue
            nm = re.search(r"([A-Za-z_]\w*)\s*$", p_nodefault)
            if nm is None:
                continue
            name = nm.group(1)
            type_text = p_nodefault[:nm.start()].strip()
            if not type_text:
                continue
            rvalue = "&&" in type_text
            if not rvalue and any(
                    re.search(r"\b%s\b" % t, type_text)
                    for t in LONG_LIVED_TYPES):
                continue
            use = re.search(r"(?<![\w.])%s\b" % re.escape(name), after)
            if use is None:
                continue
            hdr_line = sf.line_of(hdr_start + len(header) - len(header.lstrip()))
            use_line = sf.line_of(body_start + aw + use.start())
            if (sf.allowed(hdr_line, "coroutine-ref-capture")
                    or sf.allowed(use_line, "coroutine-ref-capture")):
                continue
            findings.append(Finding(
                sf.path, hdr_line, 1, "coroutine-ref-capture",
                "%s parameter '%s' of a coroutine is used after a co_await; "
                "if this task is ever detached the referent may be gone" %
                ("rvalue-reference" if rvalue else
                 ("pointer" if "*" in p_nodefault else "reference"), name)))


# --- Check 4: magesim-hotpath-alloc ----------------------------------------

HOTPATH_TOKEN_RE = re.compile(r"\bMAGESIM_HOT_PATH\b")
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")
MAKE_RE = re.compile(r"(?<![\w.])make_(?:shared|unique)\s*<")
GROW_RE = re.compile(r"(?:\.|->)\s*(%s)\s*\(" % "|".join(GROWTH_METHODS))


def allowed_container_receivers(sf):
    names = set()
    type_re = re.compile(
        r"\b(?:%s)\b[\w<>:,\s*&]*?[\s&]([A-Za-z_]\w*)\s*[;{=(]" %
        "|".join(ALLOWED_CONTAINER_TYPES))
    for m in type_re.finditer(sf.code):
        names.add(m.group(1))
    return names


def check_hotpath_alloc(sf, findings):
    code = sf.code
    exempt = allowed_container_receivers(sf)
    for tok in HOTPATH_TOKEN_RE.finditer(code):
        fn = None
        for f in sf.functions():
            if f[0] <= tok.start() < f[3]:
                fn = f
                break
        if fn is None:
            continue
        _, header, _, body_start, body_end = fn
        body = code[body_start:body_end]

        def report(offset_in_body, what):
            off = body_start + offset_in_body
            line = sf.line_of(off)
            if sf.allowed(line, "hotpath-alloc"):
                return
            findings.append(Finding(
                sf.path, line, sf.col_of(off), "hotpath-alloc",
                "%s inside MAGESIM_HOT_PATH function; the fault/evict hot "
                "path must not allocate in steady state" % what))

        for m in NEW_RE.finditer(body):
            report(m.start(), "new-expression")
        for m in MAKE_RE.finditer(body):
            report(m.start(), "make_shared/make_unique")
        for m in GROW_RE.finditer(body):
            recv = re.search(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*%s\s*\($" %
                             m.group(1), body[:m.end()])
            if recv is not None and recv.group(1) in exempt:
                continue
            report(m.start(), "growth-capable container mutation "
                   "(.%s)" % m.group(1))


# --- Check 5: magesim-guardedby-static -------------------------------------

GUARDEDBY_DECL_RE = re.compile(r"\bGuardedBy\s*<")
LOCKED_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\.\s*Locked\s*\(")
UNSAFE_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\.\s*Unsafe\s*\(")


def guardedby_fields(sf):
    fields = {}
    code = sf.code
    for m in GUARDEDBY_DECL_RE.finditer(code):
        open_idx = code.index("<", m.start())
        end = match_angle(code, open_idx)
        if end < 0:
            continue
        dm = re.match(r"\s*([A-Za-z_]\w*)\s*(?:\{([^}]*)\}|\(([^)]*)\))?",
                      code[end:])
        if dm is None:
            continue
        init = dm.group(2) or dm.group(3) or ""
        mm = re.search(r"[A-Za-z_]\w*", init)
        fields[dm.group(1)] = mm.group(0) if mm else ""
    return fields


def check_guardedby_static(sf, findings):
    fields = guardedby_fields(sf)
    code = sf.code
    for m in LOCKED_CALL_RE.finditer(code):
        field = m.group(1)
        if field not in fields:
            continue
        fn = sf.enclosing_function(m.start())
        if fn is None:
            continue
        before = code[fn[3]:m.start()]
        mutex = fields[field]
        if mutex:
            # Token-anchored: `mu_.Scoped` must not match inside
            # `other_mu_.Scoped`.
            held = (re.search(r"(?<!\w)%s\s*\.\s*(?:Scoped|Acquire|AssertHeld)"
                              % re.escape(mutex), before) is not None or
                    "MAGESIM_ASSERT_HELD(" + mutex in before or
                    "MAGESIM_GUARDED_BY(" + mutex in before)
        else:
            held = (".Scoped" in before or ".Acquire" in before or
                    "AssertHeld" in before or
                    "MAGESIM_ASSERT_HELD" in before or
                    "MAGESIM_GUARDED_BY" in before)
        if held:
            continue
        line = sf.line_of(m.start())
        if sf.allowed(line, "guardedby-static"):
            continue
        findings.append(Finding(
            sf.path, line, sf.col_of(m.start()), "guardedby-static",
            "GuardedBy field '%s' accessed via Locked() but no acquisition "
            "of '%s' is lexically in scope before it" %
            (field, mutex or "its mutex")))
    for m in UNSAFE_CALL_RE.finditer(code):
        field = m.group(1)
        if field not in fields:
            continue
        line = sf.line_of(m.start())
        if sf.allowed(line, "guardedby-static"):
            continue
        same = sf.raw_line(line)
        above = sf.raw_line(line - 1)
        if "//" in same or "/*" in same or \
                above.strip().startswith(("//", "/*", "*")):
            continue
        findings.append(Finding(
            sf.path, line, sf.col_of(m.start()), "guardedby-static",
            "unchecked GuardedBy access (.Unsafe()) on '%s' without an "
            "adjacent justification comment" % field))


CHECK_FNS = {
    "no-wallclock": check_no_wallclock,
    "unordered-iteration": check_unordered_iteration,
    "coroutine-ref-capture": check_coroutine_ref_capture,
    "hotpath-alloc": check_hotpath_alloc,
    "guardedby-static": check_guardedby_static,
}


def resolve_checks(spec):
    if spec in (None, "", "magesim-*", "*", "all"):
        return list(CHECKS)
    out = []
    for part in spec.split(","):
        slug = part.strip()
        if slug.startswith("magesim-"):
            slug = slug[len("magesim-"):]
        if slug not in CHECK_FNS:
            raise SystemExit("magesim-tidy-lite: unknown check '%s' "
                             "(have: %s)" % (part.strip(), ", ".join(CHECKS)))
        out.append(slug)
    return out


def collect_files(roots, files):
    out = list(files)
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".cc", ".cpp", ".h", ".hpp")):
                    out.append(os.path.join(dirpath, name))
    return sorted(set(out))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", action="append", default=[],
                    help="directory tree to scan (default: src, if no files "
                         "given)")
    ap.add_argument("--checks", default="magesim-*",
                    help="comma-separated magesim check names or slugs "
                         "(default: all)")
    ap.add_argument("--dump", metavar="FILE",
                    help="write normalized findings (path:line [check]) for "
                         "merge-base diffing")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("files", nargs="*")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print("magesim-" + c)
        return 0

    checks = resolve_checks(args.checks)
    roots = args.root
    if not roots and not args.files:
        roots = ["src"]
    paths = collect_files(roots, args.files)
    if not paths:
        print("magesim-tidy-lite: no input files", file=sys.stderr)
        return 2

    findings = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print("magesim-tidy-lite: %s: %s" % (path, e), file=sys.stderr)
            return 2
        sf = SourceFile(path, text)
        for slug in checks:
            CHECK_FNS[slug](sf, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.slug))
    for f in findings:
        print(f.render())
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as out:
            for line in sorted({f.normalized() for f in findings}):
                out.write(line + "\n")
    if findings:
        print("magesim-tidy-lite: %d finding(s) in %d file(s)" %
              (len(findings), len({f.path for f in findings})),
              file=sys.stderr)
        return 1
    print("magesim-tidy-lite: clean (%d files, checks: %s)" %
          (len(paths), ",".join("magesim-" + c for c in checks)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
