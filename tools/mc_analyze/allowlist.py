"""Sanctioned files and the per-site allowlist for analyzer findings.

``SANCTIONED`` maps a check to the files where the whole check
stands down: the seams a rule funnels a primitive into (the clock
shim, the Vfs seam, the process-wide registries). It is the one
place those exemptions live.

The per-site allowlist file (``tools/mc_analyze_allow.txt``) holds
narrower waivers, one entry per line:

    <check>:<path>:<site> -- <justification>

``<site>`` is the stable content-based site key each pass embeds in
its findings (e.g. ``profDelta:d[phase].allocBytes-=...`` for
wrap-safety) — line numbers are deliberately NOT part of the key so
unrelated edits don't churn the allowlist. The justification is
mandatory: an entry without ``--`` text is itself a finding, and so
is a *stale* entry that no current finding consumes (dead
allowlist lines hide regressions).
"""

from __future__ import annotations

import re

from model import Finding

# Paths are repo-root-relative with forward slashes.
SANCTIONED: dict[str, set[str]] = {
    "wall-clock": {
        # The clock shim: the one translation unit allowed to name
        # a kernel clock (CLOCK_MONOTONIC / CLOCK_REALTIME).
        "src/perf/clock.cc",
        # Telemetry-only steady_clock reads; relaxed-atomic counters
        # that never feed simulation inputs (DESIGN.md section 9
        # rule 2).
        "src/stats/profiler.hh",
        # Wall-clock watchdog deadlines and retry backoff sleeps:
        # they decide *whether* a cell runs again, never what it
        # computes, so result bytes stay schedule-independent.
        "src/runner/executor.cc",
        # Lease deadlines are compared across processes and hosts,
        # so they must read the shared system clock; they gate only
        # claim staleness, never simulated values (DESIGN.md
        # section 12).
        "src/runner/lease.cc",
    },
    "globals": {
        # Process-wide log level/sink: atomics + a dispatch mutex,
        # carrying diagnostics only.
        "src/common/logging.cc",
        # The SIGINT/SIGTERM interrupt flag: signal handlers can
        # only touch a volatile sig_atomic_t at namespace scope, and
        # it gates shutdown, never simulated values.
        "src/ckpt/ckpt.cc",
        # Allocation-meter counters: process-wide relaxed atomics by
        # necessity (they live under global operator new/delete)
        # that carry telemetry only, never simulated values.
        "src/perf/allocmeter.cc",
    },
    # Every durable byte routes through the Vfs seam (DESIGN.md
    # section 15): RealVfs is the one translation unit that may open
    # a file for writing, call rename(2)/link(2), or name any other
    # kernel write-path syscall. atomicWriteFile, the checkpoint
    # rotation and the lease protocol publish via vfs().renamePath /
    # vfs().linkPath above it.
    "atomic-write": {"src/io/vfs.cc"},
    "manifest-write": {"src/io/vfs.cc"},
    "vfs-io": {"src/io/vfs.cc"},
    # The saturating helpers' own implementations.
    "wrap-safety": {"src/common/bitops.hh"},
}


def tree_path(path: str) -> str:
    """`path` as the repository tree sees it. A mutation fixture
    under ``tests/analyze_fixtures/src/`` stands in for the same
    path under ``src/``, so the path-dependent rules (sanctioned
    files, guard names, own header first) can be exercised."""
    i = ("/" + path).find("/src/")
    return path[i:] if i >= 0 else path


class Allowlist:
    def __init__(self, path: str | None):
        self.path = path
        self.entries: dict[str, str] = {}  # key -> justification
        self.bad_lines: list[tuple[int, str]] = []
        self.used: set[str] = set()
        if path:
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                m = re.match(r"(.+?)\s+--\s+(.+)$", line)
                if not m or m.group(1).count(":") < 2:
                    self.bad_lines.append((lineno, line))
                    continue
                self.entries[m.group(1).strip()] = m.group(2).strip()

    def permits(self, finding: Finding) -> bool:
        if tree_path(finding.path) in SANCTIONED.get(finding.check,
                                                     ()):
            return True
        key = finding.key()
        if key in self.entries:
            self.used.add(key)
            return True
        return False

    def residual_findings(self) -> list[Finding]:
        """Malformed and stale entries, as findings against the
        allowlist file itself."""
        out = []
        for lineno, line in self.bad_lines:
            out.append(Finding(
                self.path or "", lineno, "allowlist",
                f"malformed entry '{line}': expected "
                "<check>:<path>:<site> -- <justification>",
                f"malformed:{lineno}"))
        for key in sorted(set(self.entries) - self.used):
            out.append(Finding(
                self.path or "", 0, "allowlist",
                f"stale entry '{key}': no current finding matches; "
                "delete it (dead entries mask regressions)",
                f"stale:{key}"))
        return out
