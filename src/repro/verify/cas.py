"""Sharded content-addressed object store: the proof cache's on-disk tier.

Proved verdicts are immutable, content-addressed artifacts, so the natural
on-disk representation is one file per verdict, named by its obligation
key and sharded by digest prefix::

    <root>/objects/<key[:2]>/<key>.json

Each object is written atomically (temp file + rename), so concurrent
writers — two verification runs sharing a ``--cache-dir``, or a ``repro
serve`` daemon and a local run — compose with plain last-writer-wins
semantics per verdict, never clobbering each other.
Since two writers of the same key hold the *same* content-addressed
verdict (modulo timing metadata), last-writer-wins is lossless.

Every object file embeds the cache schema version; objects written by a
different schema are unreadable and treated as absent, never misparsed.
The store is an accelerator: any I/O failure degrades to a miss (reads) or
a one-line stderr warning (writes), never an exception.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Union

OBJECTS_DIRNAME = "objects"

#: Keys are sha256 hex digests in production; tests use short tokens.  The
#: pattern exists for path safety: no separator or dot segment can take an
#: object outside the store.
_SAFE_KEY = re.compile(r"^[0-9a-zA-Z_-]{1,128}$")


def safe_key(key: object) -> bool:
    """Whether ``key`` may be used as an object name (no path tricks)."""
    return isinstance(key, str) and _SAFE_KEY.match(key) is not None


class ShardedStore:
    """One-file-per-verdict CAS under ``root/objects/<key[:2]>/``."""

    def __init__(self, root: Union[str, os.PathLike], schema: int) -> None:
        self.root = Path(root)
        self.schema = schema
        self.objects = self.root / OBJECTS_DIRNAME
        self._write_failed = False

    def object_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    # -- reads ---------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The stored entry dict, or None (absent, corrupt, wrong schema)."""
        if not safe_key(key):
            return None
        try:
            raw = self.object_path(key).read_text()
        except OSError:
            return None
        try:
            data = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(data, dict) or data.get("schema") != self.schema:
            return None
        entry = data.get("entry")
        return entry if isinstance(entry, dict) else None

    def has(self, key: str) -> bool:
        return safe_key(key) and self.object_path(key).is_file()

    def keys(self) -> Iterator[str]:
        """Every object key on disk (unvalidated: corrupt files included)."""
        try:
            shards = sorted(self.objects.iterdir())
        except OSError:
            return
        for shard in shards:
            try:
                names = sorted(shard.iterdir())
            except OSError:
                continue
            for path in names:
                if path.suffix == ".json":
                    yield path.stem

    def count(self) -> int:
        return sum(1 for _ in self.keys())

    def mtime(self, key: str) -> float:
        try:
            return self.object_path(key).stat().st_mtime
        except OSError:
            return 0.0

    # -- writes --------------------------------------------------------------

    def put(self, key: str, entry: dict) -> bool:
        """Atomically write one verdict object; False (+ one warning) on I/O
        failure — the cache must never take a finished verification down."""
        if not safe_key(key):
            return False
        payload = {"schema": self.schema, "entry": entry}
        path = self.object_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=key[:8], suffix=".tmp"
            )
        except OSError as exc:
            self._warn_once(exc)
            return False
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=0, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._warn_once(exc)
            return False
        return True

    def delete(self, key: str) -> bool:
        if not safe_key(key):
            return False
        try:
            self.object_path(key).unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        removed = 0
        for key in list(self.keys()):
            if self.delete(key):
                removed += 1
        return removed

    def _warn_once(self, exc: OSError) -> None:
        if not self._write_failed:
            self._write_failed = True
            print(f"[proof-cache] not persisted: {exc}", file=sys.stderr)
