"""Networked proof-cache tier (L2): the fail-open client.

Proved verdicts are immutable, content-addressed artifacts — treat them
like a CDN would.  Any ``repro --cache-dir DIR serve`` exposes its
sharded store (:class:`repro.verify.cas.ShardedStore`) next to the job
routes (:mod:`repro.service.server`), so CI, a worker fleet, and every
developer machine can replay one shared proof corpus:

    POST /v1/cache/v<schema>/multi-get  <- {"keys": [...]}    -> {"schema": N, "entries": {...}}
    POST /v1/cache/v<schema>/multi-put  <- {"entries": {...}} -> {"schema": N, "stored": n}
    GET  /v1/cache/v<schema>/stats      -> {"schema": N, "objects": n}

The cache schema version is baked into every path: a daemon serving a
different schema (or no cache directory at all) answers 404 and the
client sees a miss — never a misparsed verdict.

The client is built for the checker's access pattern: one *batched*
multi-GET per suite (read-through), one batched multi-PUT of fresh proofs
(write-behind), one connection per request (the daemon answers
``Connection: close``) with hard request timeouts.  Multiple upstreams
are sharded by digest prefix, mirroring the on-disk layout.  Above all it
is **fail-open**: any network fault — refused connection, wedged socket,
mid-stream disconnect, corrupt response — silently degrades that upstream
to "dead" and the caller falls back to L1/L0 or live proving.  The cache
is an accelerator, never a correctness dependency; no network error ever
reaches the checker.
"""

from __future__ import annotations

import json
import urllib.parse
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.verify.cache import SCHEMA_VERSION

#: Every cache route lives under this prefix on a ``repro serve`` daemon.
CACHE_ROUTE_PREFIX = "/v1/cache"

DEFAULT_TIMEOUT_S = 2.0


@dataclass
class ClientStats:
    """Observability for the network tier (printed by the CLI cache line)."""

    #: HTTP round trips attempted (the acceptance budget: one batched
    #: multi-GET plus one write-behind flush per warm suite)
    requests: int = 0
    hits: int = 0
    misses: int = 0
    published: int = 0
    errors: int = 0

    def __str__(self) -> str:
        return (f"{self.requests} round trip(s), {self.hits} hit(s), "
                f"{self.misses} miss(es), {self.published} published, "
                f"{self.errors} error(s)")


class _Upstream:
    """One daemon endpoint plus a liveness bit."""

    def __init__(self, url: str, timeout_s: float) -> None:
        if "://" not in url:
            url = "http://" + url
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"cache upstream must be an http:// URL: {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.base = parsed.path.rstrip("/")
        self.url = f"http://{self.host}:{self.port}{self.base}"
        self.timeout_s = timeout_s
        self.alive = True

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> Optional[Tuple[int, bytes]]:
        """One request on a fresh connection; None on any fault.

        Every fault (refused, timeout, mid-stream error) marks the upstream
        dead so later batches skip it entirely — fail-open, never
        fail-slow.  Nothing is retried: a wedged upstream costs one
        timeout, not two."""
        # Imported here: the daemon imports this module for its route
        # prefix, and only a client ever needs the HTTP client stack.
        import http.client

        body = None if payload is None else json.dumps(payload).encode()
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            conn.request(
                method, self.base + path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, response.read()
        except Exception:
            self.alive = False
            return None
        finally:
            conn.close()


class CacheClient:
    """Fail-open client for one or more cache daemons.

    ``urls`` may be a single URL, a comma-separated string, or a sequence;
    with several upstreams, keys are sharded by digest prefix (the same
    two-hex-character prefix that shards the on-disk store), so each
    upstream holds a disjoint slice of the corpus."""

    def __init__(self, urls: Union[str, Sequence[str]],
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        if isinstance(urls, str):
            urls = [u.strip() for u in urls.split(",") if u.strip()]
        self._upstreams = [_Upstream(url, timeout_s) for url in urls]
        if not self._upstreams:
            raise ValueError("cache client needs at least one upstream URL")
        self.stats = ClientStats()

    # -- plumbing ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return any(u.alive for u in self._upstreams)

    def describe(self) -> str:
        return ",".join(u.url for u in self._upstreams)

    def shard_for(self, key: str) -> _Upstream:
        if len(self._upstreams) == 1:
            return self._upstreams[0]
        try:
            prefix = int(key[:2], 16)
        except (ValueError, TypeError):
            prefix = zlib.crc32(str(key).encode())
        return self._upstreams[prefix % len(self._upstreams)]

    def _exchange(self, upstream: _Upstream, method: str, path: str,
                  payload: Optional[dict] = None) -> Optional[Tuple[int, object]]:
        """One round trip; parsed ``(status, json)`` or None on any fault.

        A 2xx response that is not well-formed JSON is a *corrupt* upstream
        — poisoned the same way as a network fault."""
        if not upstream.alive:
            return None
        self.stats.requests += 1
        # The schema version is part of every path: a daemon serving a
        # different schema 404s and we see honest misses, never misparses.
        out = upstream.request(
            method, f"{CACHE_ROUTE_PREFIX}/v{SCHEMA_VERSION}{path}", payload
        )
        if out is None:
            self.stats.errors += 1
            return None
        status, data = out
        parsed: object = None
        if data:
            try:
                parsed = json.loads(data)
            except ValueError:
                if status < 400:
                    self.stats.errors += 1
                    upstream.alive = False
                    return None
        return status, parsed

    def _groups(self, keys: Iterable[str]) -> Dict[_Upstream, List[str]]:
        groups: Dict[_Upstream, List[str]] = {}
        for key in keys:
            groups.setdefault(self.shard_for(key), []).append(key)
        return groups

    # -- operations ----------------------------------------------------------

    def multi_get(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Batched read: one POST per (alive) upstream shard."""
        found: Dict[str, dict] = {}
        for upstream, group in self._groups(keys).items():
            out = self._exchange(upstream, "POST", "/multi-get", {"keys": group})
            if out is None:
                continue
            status, payload = out
            entries = payload.get("entries") if isinstance(payload, dict) else None
            if status != 200 or not isinstance(entries, dict):
                # A daemon that answers but not with our protocol (schema
                # mismatch 404s land here too) cannot be trusted for reads.
                if status != 404:
                    self.stats.errors += 1
                    upstream.alive = False
                continue
            asked = set(group)
            for key, entry in entries.items():
                if key in asked and isinstance(entry, dict):
                    found[key] = entry
        self.stats.hits += len(found)
        self.stats.misses += len(set(keys)) - len(found)
        return found

    def publish(self, entries: Dict[str, dict]) -> bool:
        """Batched write-behind: one POST per upstream shard; True only if
        every shard accepted its slice (callers keep unacknowledged entries
        queued)."""
        if not entries:
            return True
        ok = True
        for upstream, group in self._groups(entries).items():
            payload = {"entries": {k: entries[k] for k in group}}
            out = self._exchange(upstream, "POST", "/multi-put", payload)
            if out is None or out[0] != 200:
                ok = False
                continue
            self.stats.published += len(group)
        return ok

    def fetch_stats(self) -> List[Tuple[str, Optional[dict]]]:
        """Per-upstream ``/stats`` payloads (None for unreachable ones)."""
        rows: List[Tuple[str, Optional[dict]]] = []
        for upstream in self._upstreams:
            out = self._exchange(upstream, "GET", "/stats")
            if out is None or out[0] != 200 or not isinstance(out[1], dict):
                rows.append((upstream.url, None))
            else:
                rows.append((upstream.url, out[1]))
        return rows
