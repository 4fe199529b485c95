"""On-disk JSON cache of trial results, keyed by config content hash.

Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps directory
listings manageable for large sweeps).  Writes are atomic — a temp file in
the same directory followed by ``os.replace`` — so a crashed or parallel
writer can never leave a half-written entry; corrupt or unreadable entries
behave as misses and are overwritten by the next run.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["TrialCache"]


class TrialCache:
    """A content-addressed store of per-trial result payloads."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        if len(key) < 3:
            raise ValueError(f"cache key too short: {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached payload for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def _entries(self) -> list[Path]:
        # Only files in the cache's own layout count: other JSON files that
        # share the root (a report, a foreign tool's state) are not entries.
        return [
            path
            for path in self.root.glob("*/*.json")
            if len(path.stem) >= 3 and path.parent.name == path.stem[:2]
        ]

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        entries = self._entries()
        for path in entries:
            path.unlink(missing_ok=True)
        return len(entries)
