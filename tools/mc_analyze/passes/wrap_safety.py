"""Pass 1: wrap-safety.

Unsigned subtraction is the repo's most-shipped bug class (stale
segmented-bus occupancy, pipelined cycle math — ROADMAP "Recent").
This pass flags ``a - b``, ``a -= b`` and ``--a`` where the left
operand is cycle/byte/count semantics on an unsigned type, unless
the site routes through the saturating helpers ``satSub``/``satDec``
(src/common/bitops.hh) or carries an allowlist entry with an audited
justification.

Flag rule, per subtraction site:
  * resolve the left operand's type (clang type if present, else
    chain resolution through the merged model);
  * classify both operands' *semantics* from terminal names and
    resolved type names (cycle / byte / count vocabularies below);
  * flag when the left operand is unsigned and either operand is
    semantic, or — when the type cannot be resolved — when BOTH
    operands land in the same semantic group (e.g.
    ``b[phase].allocBytes - a[phase].allocBytes``).

Literal left operands and signed/float types never flag. The
helpers' own implementations (src/common/bitops.hh) are a
sanctioned file (``allowlist.SANCTIONED``).
"""

from __future__ import annotations

import re

from model import Finding
from passes.common import Index

#: Semantic vocabularies. A name/type matches a group when any word
#: appears in it (case-insensitive, substring on word stems).
_GROUPS = {
    "cycle": re.compile(
        r"(?i)(cycle|busy|until|deadline|latency|wait|stamp)"),
    "byte": re.compile(r"(?i)byte"),
    "count": re.compile(
        r"(?i)(count|txns|ntxn|calls|frees|refs|epochs|hits|"
        r"misses|occupanc|accesses|evictions|lines\b)"),
}

def _semantic_group(index: Index, name: str, type_text: str) -> str:
    hay = f"{name} {type_text} {index.resolve_alias(type_text)}"
    for group, pat in _GROUPS.items():
        if pat.search(hay):
            return group
    return ""


def _norm_site(text: str) -> str:
    return re.sub(r"\s+", "", text)


def run_wrap_safety(index: Index, scope) -> list[Finding]:
    findings: list[Finding] = []
    for fm in index.models:
        if not scope(fm.path, "wrap"):
            continue
        for fn in fm.functions:
            for s in fn.subs:
                f = _check_site(index, fm.path, fn, s)
                if f:
                    findings.append(f)
    return findings


def _check_site(index, path, fn, s):
    if s.lhs_type == "<literal>":
        return None
    lhs_type = s.lhs_type or index.resolve_chain(fn, s.lhs)
    rhs_type = "" if s.rhs_type == "<literal>" else \
        (s.rhs_type or index.resolve_chain(fn, s.rhs))
    lhs_name = index.chain_terminal(s.lhs)
    rhs_name = index.chain_terminal(s.rhs) if s.rhs else ""
    lg = _semantic_group(index, lhs_name, lhs_type)
    rg = _semantic_group(index, rhs_name, rhs_type)
    if not lg and not rg:
        return None
    resolved = bool(lhs_type)
    if resolved and not index.is_unsigned(lhs_type):
        return None  # signed/float/pointer: wrap-safe by type
    if not resolved:
        # Unresolved: only flag when both operands agree on the
        # semantic group (keeps template/macro soup quiet).
        if s.op == "-" and (not lg or lg != rg):
            return None
        if s.op in ("-=", "--") and not lg:
            return None
    helper = "satDec" if s.op == "--" else "satSub"
    expr = s.lhs + s.op + (s.rhs or "")
    site = f"{fn.name}:{_norm_site(expr)}"
    what = {"-": "unsigned subtraction",
            "-=": "unsigned compound subtraction",
            "--": "unsigned decrement"}[s.op]
    group = lg or rg
    return Finding(
        path, s.line, "wrap-safety",
        f"{what} on {group}-typed expression "
        f"'{s.lhs} {s.op} {s.rhs}'".rstrip() +
        f"; route through {helper}() (src/common/bitops.hh) "
        "or allowlist with a justification",
        site)
