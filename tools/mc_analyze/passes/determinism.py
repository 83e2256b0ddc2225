"""Pass 3: determinism at AST level.

Three layers:

  * **Unordered iteration**: a range-for (or explicit .begin()
    loop) over ``unordered_map``/``unordered_set`` state inside
    simulation code. Hash-order iteration feeding any ordered sink
    (stats dump, trace emit, manifest append, checkpoint bytes) is
    exactly how -jN stops being -j1; the repo convention is to copy
    to a vector and sort (see AcfActiveLines::saveState). Flagged
    unconditionally in ``src/`` — an order-insensitive reduction is
    allowlisted with its justification.

  * **Entropy / stdout bans** in ``src/`` at call-expression level:
    a call to ``rand()``, ``time()``, ``printf()`` etc. is flagged
    as a *call* — in a function body or a namespace-scope
    initializer — so accessor methods named ``time()`` and comments
    never match. ``std::random_device`` is flagged wherever it is
    named.

  * **Wall clock** in every scanned file: any mention of
    ``steady_clock``/``system_clock``/``high_resolution_clock`` and
    any call to ``gettimeofday``/``clock_gettime``/``timespec_get``,
    at any scope, outside the sanctioned clock sites. Naming the
    clock is the violation, so an alias (``using C =
    std::chrono::steady_clock;``) is caught where it is declared.
"""

from __future__ import annotations

import re

from lexer import IDENT
from model import Finding
from passes.common import (Index, call_sites, enclosing,
                           namespace_statements, namespace_variable,
                           strip_cv_ref)

_UNORDERED = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}
_CLOCK_CALLS = {"gettimeofday", "clock_gettime", "timespec_get"}
_ENTROPY_CALLS = {"rand", "srand"}
_TIME_CALLS = {"time", "clock"}


def _norm(text: str) -> str:
    return re.sub(r"\s+", "", text)


def _receiverless(callee: str) -> str | None:
    """Last component if the call has no object receiver (allows
    std:: qualification), else None."""
    if "." in callee or "->" in callee:
        return None
    parts = callee.split("::")
    if len(parts) > 1 and parts[0] not in ("", "std"):
        return None
    return parts[-1]


def run_determinism(index: Index, scope) -> list[Finding]:
    findings: list[Finding] = []
    for fm in index.models:
        tokens = index.source(fm.path)[1].tokens
        if scope(fm.path, "src"):
            for fn in fm.functions:
                _unordered_loops(index, fm.path, fn, findings)
                _entropy(fm.path, fn.name, fn.calls, findings)
                _stats_bypass(fm.path, fn, findings)
            _namespace_entropy(fm.path, tokens, findings)
            for t in tokens:
                if t.kind == IDENT and t.text == "random_device":
                    findings.append(Finding(
                        fm.path, t.line, "determinism",
                        "std::random_device: nondeterministic entropy "
                        "source in simulation code",
                        f"{enclosing(fm, t.line)}:random_device"))
        _wall_clock(fm, tokens, findings)
    return findings


def _unordered_loops(index, path, fn, findings):
    for lp in fn.loops:
        t = index.resolve_chain(fn, lp.expr)
        if not t:
            t = index.scope_type(fn, lp.expr_type)
        t = index.resolve_alias(strip_cv_ref(t))
        if not _UNORDERED.search(t):
            continue
        findings.append(Finding(
            path, lp.line, "determinism",
            f"iteration over unordered container '{lp.expr}' "
            f"({t}): hash order must not reach an ordered sink; "
            "copy to a vector and sort, or allowlist an "
            "order-insensitive reduction",
            f"{fn.name}:{_norm(lp.expr)}"))


def _entropy(path, site, calls, findings):
    for call in calls:
        callee, line = call[0], call[1]
        name = _receiverless(callee)
        if name in _ENTROPY_CALLS:
            findings.append(Finding(
                path, line, "determinism",
                f"call to {name}(): simulation code derives values "
                "from seeds/cycles (DESIGN.md section 9)",
                f"{site}:{name}"))
        elif name in _TIME_CALLS:
            findings.append(Finding(
                path, line, "determinism",
                f"call to libc {name}(): wall time must not feed "
                "simulation state (DESIGN.md section 9)",
                f"{site}:{name}"))


def _namespace_entropy(path, tokens, findings):
    """Entropy in namespace-scope initializers, which run before
    main() and sit in no function body."""
    for stmt in namespace_statements(tokens):
        var = namespace_variable(stmt)
        if not var:
            continue
        init = var[1]
        calls = []
        for i, t in call_sites(init, _ENTROPY_CALLS | _TIME_CALLS):
            qual = init[i - 2].text + "::" \
                if i >= 2 and init[i - 1].text == "::" else ""
            calls.append((qual + t.text, t.line))
        _entropy(path, var[0][-1].text, calls, findings)


def _wall_clock(fm, tokens, findings):
    seen = set()
    for i, t in enumerate(tokens):
        if t.kind != IDENT or t.line in seen:
            continue
        if t.text in _CLOCKS or (t.text in _CLOCK_CALLS and
                                 i + 1 < len(tokens) and
                                 tokens[i + 1].text == "("):
            seen.add(t.line)
            findings.append(Finding(
                fm.path, t.line, "wall-clock",
                f"wall-clock '{t.text}' outside the sanctioned "
                "clock sites; call perfNowNs()/unixNowSec() "
                "(src/perf/clock.hh)",
                f"{enclosing(fm, t.line)}:{t.text}"))


def _stats_bypass(path, fn, findings):
    for call in fn.calls:
        callee, line = call[0], call[1]
        arg0 = call[2] if len(call) > 2 else ""
        name = _receiverless(callee)
        if callee == "std::cout" or name in ("puts", "putchar") or \
                name == "printf" or \
                (name == "fprintf" and arg0 == "stdout"):
            what = callee if callee == "std::cout" else f"{name}()"
            findings.append(Finding(
                path, line, "stats-bypass",
                f"{what} bypasses StatsRegistry/logging; stdout "
                "carries only registry-reported bytes",
                f"{fn.name}:{name or 'cout'}"))
