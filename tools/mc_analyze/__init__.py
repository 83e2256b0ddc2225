"""mc_analyze -- the source analyzer for MorphCache.

Five whole-repo passes over a per-file semantic model and token
stream extracted from C++ sources (DESIGN.md section 14):

``wrap-safety``
    Unsigned subtraction / ``-=`` / decrement on cycle/byte/count
    typed expressions must route through the saturating helpers in
    ``src/common/bitops.hh`` (``satSub``/``satDec``) or carry an
    audited allowlist entry.

``serialization``
    Every class defining both ``saveState`` and ``loadState`` must
    reference every non-static data member in both (transitively
    through same-class helpers), or annotate the member
    ``// ckpt: derived(<site>)`` / ``// ckpt: transient(<reason>)``.

``determinism``
    No iteration over ``unordered_map``/``unordered_set`` in
    simulation code (ordered sinks -- stats dumps, trace emits,
    manifest appends -- must never observe hash order), no entropy,
    libc time or stdout calls in ``src/``, and no wall clock named
    outside its sanctioned files anywhere.

``concurrency``
    Mutable state shared with thread entry points in ``src/runner``
    must be ``std::atomic``, written under a visible lock guard, or
    confined to the pre-fan-out phase (allowlisted as such).

``conventions``
    The structural rules for ``src/``: no mutable globals, file
    writes and publication only through the Vfs seam, and include
    hygiene (guards, own header first, resolving paths).

The model comes from one of two frontends: ``clang`` (driven by
``compile_commands.json`` and ``clang -Xclang -ast-dump=json``) when
a clang driver is installed, else the built-in ``uparse`` frontend
(a stdlib-only C++ tokenizer + declaration/expression extractor).
Both produce the same model schema, so pass logic is frontend
agnostic. Models are cached keyed on file-content hash.

Stdlib only; no third-party dependencies.
"""

# Bumping this invalidates every cached model.
MODEL_VERSION = 1
