"""Content-hash-keyed AST/model cache.

One JSON file per analyzed source file, named
``<sha256(content)[:24]>-<frontend>-v<MODEL_VERSION>.json`` under the
cache directory (default ``.cache/mc_analyze/``, gitignored via the
repo's ``.cache/`` rule). The key is the *content* hash — not mtime —
so a rebuilt checkout, a CI cache restore, or `git stash` round-trip
all hit; any byte change, frontend switch, or model-schema bump
misses. Eviction is unnecessary at repo scale (one small JSON per
file), but `prune()` drops entries whose key no longer corresponds
to any live file, keeping CI cache uploads bounded.
"""

from __future__ import annotations

import hashlib
import json
import os

from model import FileModel

# Bumping this invalidates every cached model.
MODEL_VERSION = 1


class ModelCache:
    def __init__(self, cache_dir: str | None):
        self.dir = cache_dir
        self.hits = 0
        self.misses = 0
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    @staticmethod
    def key(content: bytes, frontend: str) -> str:
        h = hashlib.sha256(content).hexdigest()[:24]
        return f"{h}-{frontend}-v{MODEL_VERSION}"

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, key + ".json")

    def get(self, content: bytes, frontend: str) -> FileModel | None:
        if not self.dir:
            return None
        p = self._path(self.key(content, frontend))
        try:
            with open(p, encoding="utf-8") as f:
                fm = FileModel.from_json(json.load(f))
            self.hits += 1
            return fm
        except (OSError, ValueError, KeyError):
            return None

    def put(self, content: bytes, frontend: str,
            fm: FileModel) -> None:
        self.misses += 1
        if not self.dir:
            return
        p = self._path(self.key(content, frontend))
        tmp = p + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(fm.to_json(), f)
        os.replace(tmp, p)

    def prune(self, live_keys: set[str]) -> int:
        """Delete cache entries not in `live_keys`; returns count."""
        if not self.dir:
            return 0
        dropped = 0
        for name in os.listdir(self.dir):
            if name.endswith(".json") and name[:-5] not in live_keys:
                try:
                    os.remove(os.path.join(self.dir, name))
                    dropped += 1
                except OSError:
                    pass
        return dropped
