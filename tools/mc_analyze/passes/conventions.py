"""Pass 5: source conventions in ``src/``.

Structural rules neither the compiler nor clang-tidy enforces, each
read from the lexer's token stream (comments dropped, string
literals collapsed) of every ``src/`` file:

``globals``
    No mutable namespace-scope variable: shared mutable globals are
    how -jN stops being -j1, so state lives in a per-cell object
    (DESIGN.md section 9 rule 2).

``atomic-write``
    No ``fopen(..., "w"/"a")`` and no ``std::ofstream``/``fstream``:
    a plain write can leave a torn file behind a crash, which the
    checkpoint/restore subsystem (DESIGN.md section 11) rules out.
    Durable bytes go through ``atomicWriteFile`` or a sink built on
    the Vfs seam.

``manifest-write``
    No raw ``rename``/``link`` publication: files land at their
    final path only through atomicWriteFile, the checkpoint rotation
    or the lease API (DESIGN.md section 12).

``vfs-io``
    No raw kernel write-path call (``open``/``write``/``fsync``/
    ``unlink``/``mkdir`` and friends): the seam is where FaultyVfs
    and mc_iofuzz inject faults (DESIGN.md section 15). Read-side
    calls cannot tear a file and stay unrestricted.

``includes``
    Project includes are quoted ``src/``-relative paths that
    resolve, headers carry a ``MORPHCACHE_<PATH>_HH`` guard, a
    ``.cc`` includes its own header first (proving the header is
    self-contained), and ``<bits/stdc++.h>`` never appears.

Each rule stands down in its sanctioned files
(``allowlist.SANCTIONED``). Two facts the lexer throws away come
from the raw text: the ``fopen`` mode literal and the
``#ifndef``/``#define`` guard pair.
"""

from __future__ import annotations

import os
import re

from allowlist import tree_path
from lexer import IDENT
from model import Finding
from passes.common import (Index, call_sites, enclosing,
                           namespace_statements, namespace_variable)

_CONST = {"const", "constexpr", "constinit"}
_STREAMS = {"ofstream", "fstream"}
_WRITE_FOPEN = re.compile(r'fopen\s*\([^;]+,\s*"[wa]b?\+?"\s*\)')
_PUBLISH = {"link", "rename", "linkat", "renameat", "renameat2"}
_RAW_IO = {"open", "openat", "creat", "write", "pwrite", "pwritev",
           "fwrite", "fputs", "fputc", "fsync", "fdatasync",
           "ftruncate", "truncate", "unlink", "unlinkat", "mkdir",
           "mkdirat"}
_GUARD = re.compile(r"^\s*#\s*ifndef\s+(\S+)\s*\n\s*#\s*define\s+(\S+)",
                    re.M)


def run_conventions(index: Index, scope) -> list[Finding]:
    findings: list[Finding] = []
    for fm in index.models:
        if not scope(fm.path, "src"):
            continue
        raw, lexed = index.source(fm.path)
        tokens = lexed.tokens

        def add(line: int, check: str, message: str, site: str):
            findings.append(Finding(fm.path, line, check, message,
                                    site))

        for stmt in namespace_statements(tokens):
            var = namespace_variable(stmt)
            if var and not any(t.text in _CONST for t in var[0]):
                name = var[0][-1].text
                add(stmt[0].line, "globals",
                    f"mutable namespace-scope variable '{name}'; move "
                    "it into a per-cell object or a sanctioned "
                    "registry (DESIGN.md section 9 rule 2)", name)

        fopen_lines = {t.line for _, t in call_sites(tokens, {"fopen"})}
        for m in _WRITE_FOPEN.finditer(raw):
            line = raw.count("\n", 0, m.start()) + 1
            if line in fopen_lines:
                add(line, "atomic-write",
                    "write-mode fopen bypasses atomicWriteFile(); "
                    "durable state goes through the write-then-rename "
                    "helper or a sink on the Vfs seam",
                    f"{enclosing(fm, line)}:fopen")
        for t in tokens:
            if t.kind == IDENT and t.text in _STREAMS:
                add(t.line, "atomic-write",
                    f"std::{t.text} bypasses atomicWriteFile(); "
                    "durable state goes through the write-then-rename "
                    "helper or a sink on the Vfs seam",
                    f"{enclosing(fm, t.line)}:{t.text}")

        for _, t in call_sites(tokens, _PUBLISH):
            add(t.line, "manifest-write",
                f"raw {t.text}() publication; files land at their "
                "final path only through atomicWriteFile or the "
                "lease API (DESIGN.md section 12)",
                f"{enclosing(fm, t.line)}:{t.text}")
        for _, t in call_sites(tokens, _RAW_IO):
            add(t.line, "vfs-io",
                f"raw write-path call {t.text}() outside the Vfs "
                "seam; go through vfs() (src/io/vfs.hh) so mc_iofuzz "
                "can inject faults here (DESIGN.md section 15)",
                f"{enclosing(fm, t.line)}:{t.text}")

        _includes(index.repo_root, fm.path, raw, lexed.includes, add)
    return findings


def _includes(repo_root: str, path: str, raw: str, includes, add):
    tree = tree_path(path)
    src_dir = path[:len(path) - len(tree)] + "src"
    rel = tree[len("src/"):] if tree.startswith("src/") else tree
    quoted = [(line, target) for line, kind, target in includes
              if kind == '"']
    for line, _, target in includes:
        if target == "bits/stdc++.h":
            add(line, "includes",
                "<bits/stdc++.h> is non-standard and defeats "
                "include-what-you-use", "bits/stdc++.h")
    for line, target in quoted:
        if not os.path.isfile(os.path.join(repo_root, src_dir,
                                           target)):
            add(line, "includes",
                f'"{target}" does not resolve under src/ (project '
                "includes are src/-relative)", f"resolve:{target}")
    if path.endswith(".hh"):
        guard = "MORPHCACHE_" + re.sub(r"[^A-Z0-9]", "_", rel.upper())
        m = _GUARD.search(raw)
        if not m or m.group(1) != guard or m.group(2) != guard:
            add(1, "includes",
                f"header guard must be '{guard}' (#ifndef/#define "
                "pair)", "guard")
    elif path.endswith(".cc") and os.path.isfile(
            os.path.join(repo_root, path[:-len(".cc")] + ".hh")):
        own = rel[:-len(".cc")] + ".hh"
        if not quoted or quoted[0][1] != own:
            add(quoted[0][0] if quoted else 1, "includes",
                f'first include must be "{own}" (own header first '
                "proves it is self-contained)", "own-header")
