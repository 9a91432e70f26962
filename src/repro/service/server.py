"""The daemon's HTTP face: a small hand-rolled asyncio HTTP/1.1 server.

The stdlib has no asyncio HTTP server, so this module speaks just enough
HTTP/1.1 over :func:`asyncio.start_server` for the service's routes:

================================== =========================================
``GET /v1/healthz``                liveness probe
``GET /v1/stats``                  broker/cache/job/rate-limit counters
``POST /v1/jobs``                  submit a ``job_request`` envelope (rate
                                   limited); ``"wait": true`` blocks for the
                                   final report
``GET /v1/jobs/<id>``              poll one job (status + result when done)
``GET /v1/jobs/<id>/events``       chunked ndjson stream of the job's events
``POST /v1/cache/v<N>/multi-get``  the L2 proof cache over the daemon's own
``POST /v1/cache/v<N>/multi-put``  ``--cache-dir`` store (404 without one, or
``GET /v1/cache/v<N>/stats``       for another cache schema ``N``); client:
                                   :mod:`repro.verify.netcache`
================================== =========================================

Design rules:

* The event loop only ever parses HTTP and shuffles bytes.  Everything
  that can block — request validation, job execution, waiting on job
  events, proof-cache store reads and writes — happens on worker threads
  (the service's job pool, or ``asyncio.to_thread`` bridges).
* Malformed input is a *response*, never an exception escaping the
  handler: oversized request lines and bodies get 413, unparsable JSON
  and wire-schema violations get 400, and the connection is closed
  without disturbing any other client.
* A client that disconnects mid-stream just cancels its own streaming
  coroutine; the underlying job keeps running for pollers.
* One request per connection (``Connection: close``): the daemon's jobs
  run for seconds-to-minutes, so connection reuse buys nothing and
  keep-alive bookkeeping is where hand-rolled servers grow bugs.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api import VerifyOptions
from repro.service.jobs import Job, ServiceOverloadedError, VerificationService
from repro.service.ratelimit import RateLimiter
from repro.service.wire import WIRE_VERSION, WireError, dumps, envelope
from repro.verify.cache import SCHEMA_VERSION as CACHE_SCHEMA, CachedVerdict
from repro.verify.cas import ShardedStore
from repro.verify.netcache import CACHE_ROUTE_PREFIX

MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: A peer address's aggregate submission budget is this multiple of the
#: per-client budget: ``X-Repro-Client`` sub-keys within one address (so
#: clients behind a shared NAT do not steal each other's burst), but
#: rotating the header cannot mint more than this many budgets' worth of
#: fresh tokens from one address.
ADDR_BUDGET_FACTOR = 8

#: Cap on concurrently *blocked* ``"wait": true`` submissions.  Each one
#: parks a thread for the job's whole runtime, so they get a dedicated
#: bounded pool — never the shared ``asyncio.to_thread`` executor that
#: serves every event-stream bridge and submit validation.  Beyond the
#: cap the job is still accepted, just answered 202 for polling.
DEFAULT_MAX_WAITERS = 32

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _response(
    status: int, payload: dict, extra_headers: Optional[Dict[str, str]] = None
) -> bytes:
    body = dumps(payload).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


def _error(status: int, message: str, **headers: str) -> bytes:
    return _response(
        status,
        envelope("error", {"error": message, "status": status}),
        extra_headers=headers or None,
    )


class ServiceServer:
    """One daemon: a :class:`VerificationService` behind asyncio HTTP."""

    def __init__(
        self,
        options: Optional[VerifyOptions] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent_jobs: int = 8,
        batch_window_s: float = 0.05,
        rate: float = 10.0,
        burst: float = 20.0,
        max_body_bytes: int = DEFAULT_MAX_BODY,
        max_waiters: int = DEFAULT_MAX_WAITERS,
        service: Optional[VerificationService] = None,
        limiter: Optional[RateLimiter] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.service = service or VerificationService(
            options,
            max_concurrent_jobs=max_concurrent_jobs,
            batch_window_s=batch_window_s,
        )
        self.limiter = limiter if limiter is not None else RateLimiter(rate, burst)
        # The L2 proof cache this daemon serves: its own --cache-dir store.
        cache_dir = self.service.options.cache_dir
        self.store: Optional[ShardedStore] = (
            ShardedStore(cache_dir, CACHE_SCHEMA) if cache_dir else None
        )
        # The per-address aggregate behind the per-client buckets: a client
        # rotating X-Repro-Client values still drains this one.
        self._addr_limiter = RateLimiter(
            rate * ADDR_BUDGET_FACTOR, burst * ADDR_BUDGET_FACTOR
        )
        self._max_waiters = max(1, int(max_waiters))
        self._waiters = 0  # touched only on the event loop
        self._wait_pool = ThreadPoolExecutor(
            max_workers=self._max_waiters, thread_name_prefix="repro-wait"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # resolve the real port for ``port=0`` (tests bind ephemerally)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None and self._stopping is not None
        async with self._server:
            await self._stopping.wait()
        # Drain jobs and release the pool off-loop (shutdown blocks).
        await asyncio.to_thread(self.service.shutdown)
        # All jobs are finished now, so parked waiters have returned.
        self._wait_pool.shutdown(wait=False)

    def request_stop(self) -> None:
        """Shutdown trigger, safe from signal handlers and foreign threads.

        ``asyncio.Event.set`` only wakes the loop when called *on* the
        loop, so off-loop callers (tests driving the daemon from another
        thread, signal handlers on some platforms) must trampoline through
        ``call_soon_threadsafe``."""
        if self._stopping is None or self._loop is None:
            return
        try:
            on_loop = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            on_loop = False
        if on_loop:
            self._stopping.set()
        else:
            try:
                self._loop.call_soon_threadsafe(self._stopping.set)
            except RuntimeError:
                pass  # loop already closed: nothing left to stop

    async def stop(self) -> None:
        self.request_stop()

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_inner(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # never let one request kill the loop
            try:
                writer.write(_error(500, f"internal error: {type(exc).__name__}"))
                await writer.drain()
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_inner(self, reader, writer) -> None:
        try:
            request_line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            writer.write(_error(413, "request line too long"))
            await writer.drain()
            return
        if len(request_line) > MAX_REQUEST_LINE:
            writer.write(_error(413, "request line too long"))
            await writer.drain()
            return
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            writer.write(_error(400, "malformed request line"))
            await writer.drain()
            return
        method, target, _version = parts

        headers, err = await self._read_headers(reader)
        if err is not None:
            writer.write(err)
            await writer.drain()
            return

        body, err = await self._read_body(reader, method, headers)
        if err is not None:
            writer.write(err)
            await writer.drain()
            return

        url = urlsplit(target)
        await self._route(
            method, url.path, parse_qs(url.query), headers, body, writer
        )

    async def _read_headers(
        self, reader
    ) -> Tuple[Dict[str, str], Optional[bytes]]:
        headers: Dict[str, str] = {}
        total = 0
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except asyncio.LimitOverrunError:
                return {}, _error(413, "header too long")
            total += len(line)
            if total > MAX_HEADER_BYTES:
                return {}, _error(413, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                return headers, None
            text = line.decode("latin-1").strip()
            if ":" not in text:
                return {}, _error(400, "malformed header")
            name, value = text.split(":", 1)
            headers[name.strip().lower()] = value.strip()

    async def _read_body(
        self, reader, method: str, headers: Dict[str, str]
    ) -> Tuple[bytes, Optional[bytes]]:
        if method != "POST":
            return b"", None
        length_raw = headers.get("content-length")
        if length_raw is None:
            return b"", _error(411, "POST requires Content-Length")
        try:
            length = int(length_raw)
        except ValueError:
            return b"", _error(400, "malformed Content-Length")
        if length < 0:
            return b"", _error(400, "malformed Content-Length")
        if length > self.max_body_bytes:
            return b"", _error(
                413, f"body exceeds {self.max_body_bytes} bytes"
            )
        try:
            return await reader.readexactly(length), None
        except asyncio.IncompleteReadError:
            return b"", _error(400, "truncated body")

    # -- routing ---------------------------------------------------------

    async def _route(
        self, method, path, query, headers, body, writer
    ) -> None:
        if path == "/v1/healthz":
            if method != "GET":
                writer.write(_error(405, "use GET"))
            else:
                writer.write(_response(200, {"ok": True, "schema_version": WIRE_VERSION}))
            await writer.drain()
            return
        if path == "/v1/stats":
            if method != "GET":
                writer.write(_error(405, "use GET"))
            else:
                writer.write(_response(200, self._stats_payload()))
            await writer.drain()
            return
        if path == "/v1/jobs":
            if method != "POST":
                writer.write(_error(405, "use POST"))
                await writer.drain()
                return
            await self._submit(headers, body, writer)
            return
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                writer.write(_error(405, "use GET"))
                await writer.drain()
                return
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._stream(rest[: -len("/events")].rstrip("/"), query, writer)
            else:
                await self._poll(rest, writer)
            return
        if path.startswith(CACHE_ROUTE_PREFIX + "/"):
            await self._cache(method, path[len(CACHE_ROUTE_PREFIX):], body,
                              writer)
            return
        writer.write(_error(404, f"no such route: {path}"))
        await writer.drain()

    async def _cache(self, method, route, body, writer) -> None:
        """One L2 proof-cache request; the store is touched off-loop."""
        handlers = {
            f"/v{CACHE_SCHEMA}/multi-get": ("POST", self._cache_multi_get),
            f"/v{CACHE_SCHEMA}/multi-put": ("POST", self._cache_multi_put),
            f"/v{CACHE_SCHEMA}/stats": ("GET", self._cache_stats),
        }
        verb, handler = handlers.get(route, (None, None))
        if self.store is None or handler is None:
            # No --cache-dir, another cache schema, or an unknown op: the
            # client reads a 404 as honest misses, never as a fault.
            writer.write(_error(404, f"no proof cache at /v1/cache{route}"))
        elif method != verb:
            writer.write(_error(405, f"use {verb}"))
        else:
            try:
                data = json.loads(body.decode("utf-8")) if body else {}
                payload = await asyncio.to_thread(handler, data)
            except ValueError as exc:  # bad UTF-8, JSON, or body shape
                writer.write(_error(400, f"bad cache request: {exc}"))
            else:
                writer.write(_response(200, payload))
        await writer.drain()

    def _cache_multi_get(self, data) -> dict:
        keys = data.get("keys") if isinstance(data, dict) else None
        if not isinstance(keys, list):
            raise ValueError('body must be {"keys": [...]}')
        entries = {}
        for key in keys:
            entry = self.store.get(key)  # None for unsafe keys too
            if entry is not None:
                entries[key] = entry
        return {"schema": CACHE_SCHEMA, "entries": entries}

    def _cache_multi_put(self, data) -> dict:
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, dict):
            raise ValueError('body must be {"entries": {...}}')
        stored = 0
        for key, entry in entries.items():
            # Store only what parses as a verdict, in its normal form: a
            # malformed entry (say, a non-boolean "proved") must never be
            # replayed by a later reader.
            try:
                verdict = CachedVerdict.from_json(entry)
            except (KeyError, TypeError, ValueError):
                continue
            if self.store.put(key, verdict.to_json()):
                stored += 1
        return {"schema": CACHE_SCHEMA, "stored": stored}

    def _cache_stats(self, _data) -> dict:
        return {"schema": CACHE_SCHEMA, "objects": self.store.count()}

    def _stats_payload(self) -> dict:
        stats = self.service.stats_wire()
        stats["ratelimit"] = {
            "allowed": self.limiter.stats.allowed,
            # per-client denials plus denials by the per-address aggregate
            "limited": self.limiter.stats.limited
            + self._addr_limiter.stats.limited,
            "enabled": self.limiter.enabled,
        }
        return envelope("stats", stats)

    def _client_keys(
        self, headers: Dict[str, str], writer
    ) -> Tuple[str, Optional[str]]:
        """``(per-client key, per-address key)`` for the rate limiter.

        The peer address is always part of the per-client key —
        ``X-Repro-Client`` only *sub-keys* within an address (distinct
        clients behind one NAT get distinct buckets) and is additionally
        metered against the address's aggregate budget, so rotating the
        header cannot mint unlimited fresh buckets."""
        peer = writer.get_extra_info("peername")
        addr = str(peer[0]) if peer else "unknown"
        explicit = headers.get("x-repro-client")
        if explicit:
            return f"{addr}|{explicit[:128]}", addr
        return addr, None

    def _check_limits(self, headers, writer) -> Tuple[bool, float]:
        client_key, addr_key = self._client_keys(headers, writer)
        allowed, retry_after = self.limiter.check(client_key)
        if allowed and addr_key is not None:
            allowed, retry_after = self._addr_limiter.check(addr_key)
        return allowed, retry_after

    async def _submit(self, headers, body, writer) -> None:
        allowed, retry_after = self._check_limits(headers, writer)
        if not allowed:
            after = "60" if retry_after == float("inf") else f"{retry_after:.1f}"
            writer.write(_error(
                429, "rate limit exceeded", **{"Retry-After": after}
            ))
            await writer.drain()
            return
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            writer.write(_error(400, f"malformed JSON body: {exc}"))
            await writer.drain()
            return
        try:
            # submit() parses Cobalt source and touches the suite registry —
            # worker-thread territory, not event-loop territory.
            job = await asyncio.to_thread(self.service.submit, data)
        except (WireError, ValueError, TypeError) as exc:
            writer.write(_error(400, str(exc)))
            await writer.drain()
            return
        except ServiceOverloadedError as exc:
            writer.write(_error(429, str(exc), **{"Retry-After": "10"}))
            await writer.drain()
            return
        except RuntimeError as exc:
            writer.write(_error(500, str(exc)))
            await writer.drain()
            return
        wait = bool(isinstance(data, dict) and data.get("wait"))
        if wait and self._waiters < self._max_waiters:
            # Blocking waits park a thread for the whole job; give them
            # their own bounded pool so they can never starve the shared
            # to_thread executor that serves every other handler.
            self._waiters += 1
            try:
                await asyncio.get_running_loop().run_in_executor(
                    self._wait_pool, job.wait
                )
            finally:
                self._waiters -= 1
            writer.write(_response(200, envelope("job", job.to_wire())))
        else:
            # not waiting — or every wait slot is taken: the job is still
            # accepted, the client polls it instead of blocking us.
            writer.write(_response(202, envelope("job", job.to_wire())))
        await writer.drain()

    async def _poll(self, job_id: str, writer) -> None:
        job = self.service.get(job_id)
        if job is None:
            writer.write(_error(404, f"no such job: {job_id}"))
        else:
            writer.write(_response(200, envelope("job", job.to_wire())))
        await writer.drain()

    async def _stream(self, job_id: str, query, writer) -> None:
        job = self.service.get(job_id)
        if job is None:
            writer.write(_error(404, f"no such job: {job_id}"))
            await writer.drain()
            return
        try:
            cursor = int(query.get("cursor", ["0"])[0])
        except ValueError:
            writer.write(_error(400, "cursor must be an integer"))
            await writer.drain()
            return
        writer.write((
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii"))
        await writer.drain()
        finished = False
        while not finished:
            events, cursor, finished = await asyncio.to_thread(
                job.wait_events, cursor, 1.0
            )
            for event in events:
                line = (dumps(event) + "\n").encode("utf-8")
                writer.write(
                    f"{len(line):x}\r\n".encode("ascii") + line + b"\r\n"
                )
            # drain() raises once the client is gone — the exception
            # unwinds to _handle, which just closes this connection; the
            # job itself keeps running for other watchers.
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


async def _serve(server: ServiceServer, ready=None) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_stop)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    if ready is not None:
        ready(server)
    print(
        f"repro serve: listening on http://{server.host}:{server.port} "
        f"(schema v{WIRE_VERSION})",
        flush=True,
    )
    await server.serve_forever()


def run_server(
    options: Optional[VerifyOptions] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8421,
    max_concurrent_jobs: int = 8,
    batch_window_s: float = 0.05,
    rate: float = 10.0,
    burst: float = 20.0,
    ready=None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code.

    ``ready`` (tests, smoke scripts) is called with the started
    :class:`ServiceServer` once the socket is bound."""
    server = ServiceServer(
        options,
        host=host,
        port=port,
        max_concurrent_jobs=max_concurrent_jobs,
        batch_window_s=batch_window_s,
        rate=rate,
        burst=burst,
    )
    try:
        asyncio.run(_serve(server, ready))
    except KeyboardInterrupt:
        pass
    return 0
