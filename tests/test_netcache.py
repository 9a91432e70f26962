"""The networked proof-cache tier: ``repro serve``'s ``/v1/cache`` routes
and the fail-open client in repro.verify.netcache.

Two layers of contract:

* wire level — the daemon serves/accepts verdict objects from its own
  ``--cache-dir`` store over the batched JSON protocol, refuses malformed
  verdicts and unsafe keys, and multiple upstreams shard by digest prefix;
* failure level — the client is *strictly fail-open*: a refused port, a
  wedged socket, a corrupt response, or a daemon dying mid-suite all
  degrade to cache misses, never exceptions, and the final verification
  report is byte-identical to a cache-off run.

The end-to-end tests drive real ``verify_suite`` runs through an
in-process daemon on a loopback socket and compare canonical reports.
"""

import asyncio
import http.client
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import ProverOptions, VerifyOptions, verify_suite
from repro.opts import const_fold, const_prop
from repro.service import ServiceServer
from repro.verify import netcache
from repro.verify.cache import SCHEMA_VERSION, ProofCache
from repro.verify.cas import ShardedStore
from repro.verify.netcache import CacheClient

FAST = ProverOptions(timeout_s=60.0)
MINI_SUITE = dict(analyses=[], optimizations=[const_prop, const_fold])


def _entry(proved=True, config="", backend="internal"):
    return {"proved": proved, "elapsed_s": 0.1, "context": [],
            "config": config, "backend": backend}


class _Daemon:
    """An in-process ``repro [--cache-dir DIR] serve`` on an ephemeral port."""

    def __init__(self, cache_dir=None) -> None:
        options = VerifyOptions(
            prover=FAST,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )
        self.server = ServiceServer(options, port=0)
        started = threading.Event()

        def run():
            async def main():
                await self.server.start()
                started.set()
                await self.server.serve_forever()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "daemon failed to start"

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    @property
    def store(self) -> ShardedStore:
        return self.server.store

    def post(self, path, payload):
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                          timeout=10)
        try:
            conn.request("POST", path, body=json.dumps(payload).encode())
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        self.server.request_stop()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "daemon did not stop"


def _start(tmp_path, name="store"):
    return _Daemon(tmp_path / name)


@pytest.fixture()
def daemon(tmp_path):
    server = _start(tmp_path)
    yield server
    server.stop()


class TestWireProtocol:
    def test_batched_round_trip(self, daemon):
        client = CacheClient(daemon.url)
        entries = {f"aa{i:04x}": _entry() for i in range(8)}
        assert client.publish(entries)
        found = client.multi_get(list(entries) + ["ffffff"])
        assert set(found) == set(entries)
        assert client.stats.published == 8
        # The objects landed in the daemon's own --cache-dir store.
        assert daemon.store.count() == 8

    def test_two_upstreams_shard_by_digest_prefix(self, tmp_path):
        even = _start(tmp_path, "even")
        odd = _start(tmp_path, "odd")
        try:
            client = CacheClient(f"{even.url},{odd.url}")
            # 0x00 % 2 == 0, 0xff % 2 == 1: one key per shard.
            assert client.publish({"00aaaa": _entry(), "ffbbbb": _entry()})
            assert even.store.has("00aaaa") and not even.store.has("ffbbbb")
            assert odd.store.has("ffbbbb") and not odd.store.has("00aaaa")
            # Reads fan out to the right shard and merge.
            assert set(client.multi_get(["00aaaa", "ffbbbb"])) == {
                "00aaaa", "ffbbbb"}
        finally:
            for server in (even, odd):
                server.stop()

    def test_schema_mismatch_is_a_miss_not_poison(self, daemon, monkeypatch):
        daemon.store.put("aa1234", _entry())
        client = CacheClient(daemon.url)
        # The client now speaks v(N+1); the daemon serves vN only.
        monkeypatch.setattr(netcache, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert client.multi_get(["aa1234"]) == {}
        # A 404 is an honest miss; the upstream is not marked dead.
        assert client.alive
        assert client.stats.misses == 1

    def test_unsafe_keys_rejected_by_daemon(self, daemon):
        status, body = daemon.post(
            f"/v1/cache/v{SCHEMA_VERSION}/multi-put",
            {"entries": {"../escape": _entry()}},
        )
        assert (status, body["stored"]) == (200, 0)
        assert not (daemon.store.root / ".." / "escape.json").exists()
        assert daemon.store.count() == 0

    def test_non_boolean_proved_is_not_stored(self, daemon):
        # A network writer must not be able to plant an entry that a
        # reader's truthiness check would replay as a proof.
        status, body = daemon.post(
            f"/v1/cache/v{SCHEMA_VERSION}/multi-put",
            {"entries": {"aa0001": _entry(proved="false"),
                         "aa0002": {"elapsed_s": 0.1},
                         "aa0003": [],
                         "aa0004": _entry()}},
        )
        assert (status, body["stored"]) == (200, 1)
        assert daemon.store.has("aa0004") and not daemon.store.has("aa0001")

    def test_malformed_requests_are_responses(self, daemon):
        base = f"/v1/cache/v{SCHEMA_VERSION}"
        assert daemon.post(f"{base}/multi-get", {"keys": "aa"})[0] == 400
        assert daemon.post(f"{base}/multi-put", [])[0] == 400
        assert daemon.post(f"{base}/stats", {})[0] == 405
        assert daemon.post(f"{base}/objects", {})[0] == 404
        # The daemon is still serving.
        assert CacheClient(daemon.url).fetch_stats()[0][1]["objects"] == 0

    def test_no_cache_dir_answers_404(self):
        bare = _Daemon(cache_dir=None)
        try:
            client = CacheClient(bare.url)
            assert client.multi_get(["aa1111", "bb2222"]) == {}
            assert client.stats.misses == 2
            assert client.stats.errors == 0
            assert client.alive  # an honest miss, not a dead upstream
            assert not client.publish({"aa1111": _entry()})
            assert client.alive
            status, _ = bare.post(f"/v1/cache/v{SCHEMA_VERSION}/multi-get",
                                  {"keys": ["aa1111"]})
            assert status == 404
        finally:
            bare.stop()


class _GarbageHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def _garbage(self):
        length = int(self.headers.get("Content-Length", 0))
        if length:
            self.rfile.read(length)
        body = b"<html>definitely not the cache protocol</html>"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _garbage
    do_POST = _garbage


class TestFailOpen:
    def test_refused_connection(self):
        client = CacheClient("http://127.0.0.1:1", timeout_s=0.5)
        assert client.multi_get(["aa1111"]) == {}
        assert not client.publish({"aa1111": _entry()})
        assert not client.alive
        # Dead upstreams are skipped without further round trips.
        before = client.stats.requests
        assert client.multi_get(["bb2222"]) == {}
        assert client.stats.requests == before

    def test_wedged_socket_costs_one_timeout(self):
        wedge = socket.socket()
        wedge.bind(("127.0.0.1", 0))
        wedge.listen(1)  # accepts, never answers
        try:
            url = f"http://127.0.0.1:{wedge.getsockname()[1]}"
            client = CacheClient(url, timeout_s=0.3)
            start = time.monotonic()
            assert client.multi_get(["aa1111"]) == {}
            elapsed = time.monotonic() - start
            assert elapsed < 2.0  # one timeout, no retry storm
            assert not client.alive
        finally:
            wedge.close()

    def test_corrupt_response_poisons_upstream(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _GarbageHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = CacheClient(url, timeout_s=1.0)
            assert client.multi_get(["aa1111"]) == {}
            assert not client.alive
            assert client.stats.errors >= 1
        finally:
            server.shutdown()
            server.server_close()

    def test_prefetch_and_publish_survive_dead_remote(self, tmp_path):
        cache = ProofCache(
            tmp_path, remote=CacheClient("http://127.0.0.1:1", timeout_s=0.3)
        )
        cache.put("aa1111", proved=True, elapsed_s=0.1)
        cache.prefetch(["bb2222"])
        cache.save()  # publish fails silently; L1 still written
        assert ShardedStore(tmp_path, SCHEMA_VERSION).has("aa1111")


class TestEndToEnd:
    def _canonical_off(self):
        return verify_suite(VerifyOptions(prover=FAST), **MINI_SUITE).canonical()

    def test_warm_l2_only_replay(self, tmp_path, daemon):
        baseline = self._canonical_off()

        # Cold run: local L1 plus the daemon; fresh proofs are published.
        cold = verify_suite(
            VerifyOptions(prover=FAST, cache_dir=str(tmp_path / "l1"),
                          cache_url=daemon.url),
            **MINI_SUITE,
        )
        assert cold.canonical() == baseline
        assert cold.cache.remote.stats.published > 0
        assert daemon.store.count() == cold.cache.remote.stats.published

        # Warm run with *no* local cache directory: every verdict must come
        # from the network tier, in at most two round trips (one batched
        # suite prefetch; nothing new to publish), byte-identically.
        warm = verify_suite(
            VerifyOptions(prover=FAST, cache_url=daemon.url), **MINI_SUITE
        )
        assert warm.canonical() == baseline

        def results(report):
            for dep in report.dependencies:
                yield from results(dep)
            yield from report.results

        assert all(r.cached for rep in warm.reports for r in results(rep))
        assert warm.cache.remote.stats.requests <= 2
        assert warm.cache.remote.stats.hits > 0

    def test_l2_pulls_are_persisted_to_l1(self, tmp_path, daemon):
        verify_suite(
            VerifyOptions(prover=FAST, cache_dir=str(tmp_path / "a"),
                          cache_url=daemon.url),
            **MINI_SUITE,
        )
        # A different machine (fresh L1) warms from the network...
        verify_suite(
            VerifyOptions(prover=FAST, cache_dir=str(tmp_path / "b"),
                          cache_url=daemon.url),
            **MINI_SUITE,
        )
        # ...and read-through persists the pulled verdicts locally.
        store = ShardedStore(tmp_path / "b", SCHEMA_VERSION)
        assert store.count() > 0

    def test_daemon_killed_mid_suite_fails_open(self, tmp_path):
        baseline = self._canonical_off()
        server = _start(tmp_path)
        killed = threading.Event()

        def kill_after_first(report):
            if not killed.is_set():
                killed.set()
                server.stop()

        suite = verify_suite(
            VerifyOptions(prover=FAST, cache_url=server.url),
            progress=kill_after_first,
            **MINI_SUITE,
        )  # must not raise
        assert killed.is_set()
        assert suite.canonical() == baseline
