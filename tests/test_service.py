"""The verification daemon (docs/SERVICE.md).

Covers, bottom-up: the rate limiter's deterministic 429 path (injected
clock), single-flight dedupe between checkers sharing one proof cache
(driven by events and a gated stand-in prover, never by timing), the
job queue's validation/rejection paths, and the asyncio HTTP
server end to end — concurrent clients getting byte-identical reports to
a serial local ``verify_suite``, malformed/oversized bodies answered
without disturbing the loop, and a client disconnecting mid-stream
cancelling only its own stream.
"""

import asyncio
import http.client
import json
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.api import ProverOptions, VerifyOptions, verify_suite
from repro.cobalt.labels import standard_registry
from repro.prover import Result, Status
from repro.service import (
    Job,
    RateLimiter,
    ServiceOverloadedError,
    ServiceServer,
    TokenBucket,
    VerificationService,
)
from repro.service.wire import WireError, envelope
from repro.verify.cache import ProofCache, obligation_key
from repro.verify import encode as E
from repro.verify.checker import SoundnessChecker
from repro.verify.obligations import ObligationBuilder

CONST_PROP = """
forward optimization constProp {
  stmt(Y := C)
  followed by
  !mayDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}
"""

FAST = VerifyOptions(prover=ProverOptions(timeout_s=60.0))


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.take() == (True, 0.0)
        assert bucket.take() == (True, 0.0)
        allowed, retry = bucket.take()
        assert not allowed
        assert retry == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.take()[0]
        assert not bucket.take()[0]
        clock.now += 0.5  # 2 tokens/s * 0.5s = 1 token
        assert bucket.take()[0]

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
        assert bucket.take()[0]
        allowed, retry = bucket.take()
        assert not allowed
        assert retry == float("inf")


class TestRateLimiter:
    def test_keys_are_independent(self):
        limiter = RateLimiter(rate=0.0, burst=1.0, clock=FakeClock())
        assert limiter.check("a")[0]
        assert limiter.check("b")[0]
        assert not limiter.check("a")[0]
        assert limiter.stats.allowed == 2
        assert limiter.stats.limited == 1

    def test_burst_zero_disables(self):
        limiter = RateLimiter(rate=0.0, burst=0.0, clock=FakeClock())
        assert not limiter.enabled
        for _ in range(10):
            assert limiter.check("a")[0]

    def test_key_eviction_is_bounded(self):
        limiter = RateLimiter(rate=0.0, burst=1.0, clock=FakeClock())
        limiter.MAX_KEYS = 4
        for i in range(10):
            limiter.check(f"client-{i}")
        assert len(limiter._buckets) <= 4


# ---------------------------------------------------------------------------
# Single flight: concurrent checkers sharing one proof cache
# ---------------------------------------------------------------------------


class GatedProver:
    """A stand-in prover whose searches block until ``gate`` opens
    (already open unless ``gated``).

    Records each obligation it is asked to discharge as ``(owner,
    obligation name)`` — once, at the obligation's first case — and the
    most searches ever inside it at once; ``entered`` is set when the
    first search starts.  Answers ``proved`` (or ``unknown``), or raises
    when ``fail`` is set."""

    def __init__(self, *, gated=True, proved=True, fail=False) -> None:
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self.proved = proved
        self.fail = fail
        self.entered = threading.Event()
        self.calls = []
        self.active = 0
        self.max_active = 0
        self.lock = threading.Lock()

    def prove(self, goal, *, extra_axioms=(), name="goal", config=None):
        owner, case = name.split(":", 1)
        obligation, _, kind = case.partition("[")
        with self.lock:
            if kind in ("", f"{E.STMT_KINDS[0].fn}]"):
                self.calls.append((owner, obligation))
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        self.entered.set()
        try:
            assert self.gate.wait(60), "gate never opened"
            if self.fail:
                raise RuntimeError("search crashed")
            if self.proved:
                return Result(Status.PROVED, name)
            return Result(Status.UNKNOWN, name, ["<unknown>"])
        finally:
            with self.lock:
                self.active -= 1


class SignallingCache(ProofCache):
    """A memory cache that reports, per thread name, each claim's outcome
    and the moment a checker starts waiting on another's claims."""

    def __init__(self, *threads) -> None:
        super().__init__(None)
        self.claimed = {name: threading.Event() for name in threads}
        self.waiting = {name: threading.Event() for name in threads}
        self.claims_log = []

    def claim(self, keys, config_fp):
        mine, theirs = super().claim(keys, config_fp)
        name = threading.current_thread().name
        self.claims_log.append((name, list(mine), list(theirs)))
        self.claimed[name].set()
        return mine, theirs

    def settle(self, keys, config_fp):
        if keys:
            self.waiting[threading.current_thread().name].set()
        return super().settle(keys, config_fp)


def _obligations(owner="F"):
    from repro.opts import const_fold

    return [
        replace(ob, name=f"{owner}.{ob.name}")
        for ob in ObligationBuilder(standard_registry()).forward_obligations(
            const_fold.pattern
        )
    ]


def _distinct_keys(checker, obligations):
    return len({obligation_key(ob, checker._axiom_digest) for ob in obligations})


def _checker(cache, prover, *, timeout_s=None):
    checker = SoundnessChecker(
        options=replace(FAST, obligation_timeout_s=timeout_s),
        proof_cache=cache,
    )
    checker._prover = prover
    return checker


def _start(name, checker, obligations):
    """Run one checker's dispatch on its own named thread."""
    box = {}

    def target():
        try:
            box["report"] = checker._discharge(name, obligations)
        except Exception as exc:  # surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=target, name=name, daemon=True)
    thread.start()
    return thread, box


def _overlap(a, obs_a, b, obs_b, *, gated, b_reached):
    """Start job A and hold it inside its first search (``gated``'s gate),
    start job B and wait until it reaches ``b_reached``, then open the
    gate and let both finish.  Returns both jobs' result boxes."""
    thread_a, box_a = _start("A", a, obs_a)
    assert gated.entered.wait(60)
    thread_b, box_b = _start("B", b, obs_b)
    assert b_reached.wait(60)
    gated.gate.set()
    thread_a.join(60)
    thread_b.join(60)
    return box_a, box_b


class TestSingleFlight:
    def test_each_scoped_key_is_discharged_once(self):
        prover = GatedProver()
        cache = SignallingCache("A", "B")
        a, b = _checker(cache, prover), _checker(cache, prover)
        obs_a, obs_b = _obligations("A"), _obligations("B")
        # B finds every key claimed by A and waits for A's searches.
        box_a, box_b = _overlap(a, obs_a, b, obs_b, gated=prover,
                                b_reached=cache.waiting["B"])
        assert "error" not in box_a and "error" not in box_b
        distinct = _distinct_keys(a, obs_a)
        # Two of constFold's obligations share goal content, hence one key:
        # A dedupes its own batch, and B searches nothing at all.
        assert distinct < len(obs_a)
        assert len(prover.calls) == distinct
        assert {owner for owner, _ in prover.calls} == {"A"}
        assert [r.proved for r in box_b["report"].results] == [True] * len(obs_b)
        assert cache.stats.coalesced == distinct
        assert cache.stats.claims == distinct
        assert cache.stats.claim_batches == 1

    def test_each_job_gets_results_in_order_under_its_own_names(self):
        prover = GatedProver()
        cache = SignallingCache("A", "B")
        a, b = _checker(cache, prover), _checker(cache, prover)
        obs_a, obs_b = _obligations("A"), _obligations("B")
        box_a, box_b = _overlap(a, obs_a, b, obs_b, gated=prover,
                                b_reached=cache.waiting["B"])
        for box, obs in ((box_a, obs_a), (box_b, obs_b)):
            results = box["report"].results
            assert [r.obligation for r in results] == [ob.name for ob in obs]
            assert all(r.proved for r in results)
        # A searched the first obligation of each key, in order; a later
        # obligation sharing a key was answered from that search.
        firsts = {}
        for ob in obs_a:
            firsts.setdefault(obligation_key(ob, a._axiom_digest), ob.name)
        assert [name for _, name in prover.calls] == list(firsts.values())

    def test_unknown_under_one_hard_timeout_never_answers_another(self):
        short = GatedProver(proved=False)  # a hard-timeout unknown
        full = GatedProver(gated=False)
        cache = SignallingCache("A", "B")
        a = _checker(cache, short, timeout_s=0.001)
        b = _checker(cache, full)
        obs = _obligations()
        # B's scope differs, so A's open claims are not B's to wait on.
        box_a, box_b = _overlap(a, obs, b, obs, gated=short,
                                b_reached=cache.claimed["B"])
        distinct = _distinct_keys(a, obs)
        assert not any(r.proved for r in box_a["report"].results)
        assert all(r.proved for r in box_b["report"].results)
        assert len(short.calls) == len(full.calls) == distinct
        b_claims = [entry for entry in cache.claims_log if entry[0] == "B"]
        assert [len(mine) for _, mine, _ in b_claims] == [distinct]
        assert not cache.waiting["B"].is_set()

    def test_failed_claimant_releases_and_waiter_proves_itself(self):
        crashing = GatedProver(fail=True)
        healthy = GatedProver(gated=False)
        cache = SignallingCache("A", "B")
        a, b = _checker(cache, crashing), _checker(cache, healthy)
        obs = _obligations()
        box_a, box_b = _overlap(a, obs, b, obs, gated=crashing,
                                b_reached=cache.waiting["B"])
        assert isinstance(box_a.get("error"), RuntimeError)
        assert all(r.proved for r in box_b["report"].results)
        assert len(healthy.calls) == _distinct_keys(b, obs)
        assert not cache._claims

    def test_concurrent_in_process_searches_never_overlap(self, monkeypatch):
        import repro.verify.parallel as parallel

        contended = threading.Event()
        progress = threading.Event()  # B queued on the lock, or got past it

        class ObservedLock:
            """The search lock, signalling when a second thread queues."""

            def __init__(self) -> None:
                self.lock = threading.Lock()

            def __enter__(self):
                if not self.lock.acquire(blocking=False):
                    contended.set()
                    progress.set()
                    self.lock.acquire()

            def __exit__(self, *exc) -> None:
                self.lock.release()

        monkeypatch.setattr(parallel, "_SEARCH_LOCK", ObservedLock())
        prover = GatedProver()
        original = prover.prove

        def prove(goal, *, name, **kwargs):
            if name.startswith("B:"):
                progress.set()  # reached while A searches only without a lock
            return original(goal, name=name, **kwargs)

        prover.prove = prove
        # Separate caches: nothing is shared, both jobs must search.
        a = _checker(ProofCache(None), prover)
        b = _checker(ProofCache(None), prover)
        box_a, box_b = _overlap(a, _obligations("A"), b, _obligations("B"),
                                gated=prover, b_reached=progress)
        assert contended.is_set()
        assert prover.max_active == 1
        assert all(r.proved for r in box_a["report"].results)
        assert all(r.proved for r in box_b["report"].results)


# ---------------------------------------------------------------------------
# The service (no HTTP)
# ---------------------------------------------------------------------------


@pytest.fixture()
def service():
    svc = VerificationService(FAST, max_concurrent_jobs=4)
    yield svc
    svc.shutdown()


class TestVerificationService:
    def test_source_job_matches_local_run(self, service):
        job = service.submit(envelope("job-request", {"source": CONST_PROP}))
        assert job.wait(timeout=120)
        assert job.status == "done"
        got = job.result["canonical"]

        from repro.cli import parse_blocks
        from repro.cobalt.dsl import Optimization

        items = parse_blocks(CONST_PROP)
        local = verify_suite(
            FAST,
            analyses=[],
            optimizations=[
                i if isinstance(i, Optimization) else Optimization(i)
                for i in items
            ],
        )
        assert got == local.canonical()

    def test_bad_envelope_kind_is_refused(self, service):
        with pytest.raises(WireError, match="job-request"):
            service.submit(envelope("suite-report", {}))

    def test_forbidden_options_are_refused(self, service):
        body = envelope("job-request", {
            "source": CONST_PROP,
            "options": {"solver_cmd": ["evil"]},
        })
        with pytest.raises(WireError, match="solver_cmd"):
            service.submit(body)

    def test_unknown_suite_names_are_refused(self, service):
        body = envelope("job-request", {"optimizations": ["noSuchPass"]})
        with pytest.raises(WireError, match="noSuchPass"):
            service.submit(body)

    @pytest.mark.parametrize("source,message", [
        ("forward optimization x { true until skip => skip with witness true }",
         r"line 1, col 31: expected 'followed' \(got 'until'\)"),
        ("forward optimization x { true followed by true until X := := Y => skip"
         " with witness true }",
         "line 1, col 59: expected a base-expression pattern"),
        ("forward optimization x { true followed by true until skip => skip"
         " with witness eta is nice }",
         r"line 1, col 84: expected '\(' \(got 'is'\)"),
    ], ids=["missing-clause", "bad-pattern-statement", "bad-witness"])
    def test_unparsable_source_is_refused(self, service, source, message):
        body = envelope("job-request", {"source": source})
        with pytest.raises(WireError, match="unparsable Cobalt source: " + message):
            service.submit(body)

    def test_client_prover_options_are_honored(self, service):
        body = envelope("job-request", {
            "source": CONST_PROP,
            "options": {
                "prover": envelope("prover-options", {"timeout_s": 33.0}),
            },
        })
        job = service.submit(body)
        assert job.wait(timeout=120)
        assert job.status == "done"

    def test_stats_counters_move(self, service):
        job = service.submit(envelope("job-request", {"source": CONST_PROP}))
        job.wait(timeout=120)
        stats = service.stats_wire()
        assert stats["jobs"]["submitted"] >= 1
        assert stats["jobs"]["completed"] >= 1
        assert stats["broker"]["enqueued"] >= 1
        assert stats["cache"]["stores"] >= 1

    def test_live_job_bound_refuses_submissions(self):
        svc = VerificationService(FAST, max_live_jobs=1)
        try:
            # a live (unfinished) job occupies the only slot
            svc._jobs["blocker"] = Job("blocker", "suite")
            with pytest.raises(ServiceOverloadedError):
                svc.submit(envelope("job-request", {"optimizations": []}))
        finally:
            del svc._jobs["blocker"]
            svc.shutdown()

    def test_live_count_follows_job_ends(self):
        svc = VerificationService(FAST)
        try:
            job = svc.submit(envelope("job-request", {"optimizations": []}))
            assert job.wait(timeout=60)
            assert svc.stats_wire()["jobs"]["live"] == 0
            other = Job("other", "suite")
            svc._jobs["other"] = other
            assert svc.stats_wire()["jobs"]["live"] == 1
            other.fail("first")
            other.fail("second")  # ends count once
            assert svc.stats_wire()["jobs"]["live"] == 0
        finally:
            svc.shutdown()


class TestJobEndWaiter:
    """``"wait": true`` awaits a loop future that the job's end resolves."""

    def test_resolves_when_the_job_ends_off_loop(self):
        from repro.service.server import _job_end

        job = Job("j", "suite")

        async def main():
            waiter = asyncio.ensure_future(_job_end(job))
            await asyncio.sleep(0)
            assert not waiter.done()
            await asyncio.to_thread(job.finish, {"ok": True})
            await asyncio.wait_for(waiter, 10)

        asyncio.run(main())
        assert job.status == "done"

    def test_ended_job_returns_at_once(self):
        from repro.service.server import _job_end

        job = Job("j", "suite")
        job.fail("boom")
        asyncio.run(asyncio.wait_for(_job_end(job), 10))

    def test_cancelled_waiter_and_closed_loop_are_skipped(self):
        from repro.service.server import _job_end

        cancelled, orphaned = Job("a", "suite"), Job("b", "suite")
        errors = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            waiters = [asyncio.ensure_future(_job_end(job))
                       for job in (cancelled, orphaned)]
            await asyncio.sleep(0)
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            # the cancelled future's listener still fires, harmlessly
            await asyncio.to_thread(cancelled.finish, {})
            await asyncio.sleep(0)

        asyncio.run(main())
        assert errors == []
        # the loop has closed; the last listener must not raise
        orphaned.finish({})
        assert cancelled.status == orphaned.status == "done"


# ---------------------------------------------------------------------------
# The HTTP server
# ---------------------------------------------------------------------------


class DaemonFixture:
    def __init__(self, server: ServiceServer) -> None:
        self.server = server
        self.thread: threading.Thread = None  # type: ignore[assignment]
        self.loop = None

    @property
    def port(self) -> int:
        return self.server.port

    def request(self, method, path, body=None, headers=None, timeout=120.0):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            conn.close()

    def post_job(self, payload, headers=None, timeout=120.0):
        body = json.dumps(envelope("job-request", payload)).encode()
        return self.request("POST", "/v1/jobs", body=body, headers=headers,
                            timeout=timeout)


def _start_daemon(**kwargs):
    server = ServiceServer(kwargs.pop("options", FAST), port=0, **kwargs)
    fixture = DaemonFixture(server)
    started = threading.Event()

    def run():
        async def main():
            await server.start()
            started.set()
            await server.serve_forever()
        asyncio.run(main())

    fixture.thread = threading.Thread(target=run, daemon=True)
    fixture.thread.start()
    assert started.wait(10), "daemon failed to start"
    return fixture


@pytest.fixture()
def daemon():
    fixture = _start_daemon()
    yield fixture
    fixture.server.request_stop()
    fixture.thread.join(timeout=30)


class TestHTTP:
    def test_healthz(self, daemon):
        status, _, body = daemon.request("GET", "/v1/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_unknown_route_is_404(self, daemon):
        status, _, _ = daemon.request("GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_405(self, daemon):
        status, _, _ = daemon.request("POST", "/v1/healthz", body=b"{}")
        assert status == 405

    def test_unknown_job_is_404(self, daemon):
        status, _, _ = daemon.request("GET", "/v1/jobs/ffff")
        assert status == 404

    def test_malformed_json_is_400_and_loop_survives(self, daemon):
        status, _, body = daemon.request("POST", "/v1/jobs", body=b"{nope")
        assert status == 400
        assert "malformed JSON" in json.loads(body)["error"]
        # the loop is still serving
        assert daemon.request("GET", "/v1/healthz")[0] == 200

    def test_post_without_length_is_411(self, daemon):
        # http.client always sets Content-Length; speak raw bytes instead.
        with socket.create_connection(("127.0.0.1", daemon.port), 10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n")
            response = sock.recv(4096)
        assert b"411" in response.split(b"\r\n", 1)[0]
        assert daemon.request("GET", "/v1/healthz")[0] == 200

    def test_removed_solver_session_option_is_400(self, daemon):
        # The --solver-session switch is gone, but a client that still
        # sends its option is refused rather than silently ignored.
        body = json.dumps(envelope("job-request", {
            "source": CONST_PROP, "options": {"solver_session": True},
        })).encode()
        status, _, reply = daemon.request("POST", "/v1/jobs", body=body)
        assert status == 400
        assert "solver_session" in json.loads(reply)["error"]

    def test_removed_cache_url_option_is_400(self, daemon):
        # The network cache tier is gone; a client that still sends its
        # options is refused rather than silently ignored.
        for field, value in (("cache_url", "http://127.0.0.1:1"),
                             ("cache_timeout_s", 2.0)):
            status, _, reply = daemon.post_job(
                {"source": CONST_PROP, "options": {field: value}}
            )
            assert status == 400
            assert field in json.loads(reply)["error"]

    def test_removed_cache_routes_are_404(self, daemon):
        entry = {"proved": True, "elapsed_s": 0.1, "context": [],
                 "config": "", "backend": "internal"}
        body = json.dumps({"entries": {"aa0001": entry}}).encode()
        status, _, reply = daemon.request(
            "POST", "/v1/cache/v4/multi-put", body=body
        )
        assert status == 404
        assert json.loads(reply)["error"] == (
            "no such route: /v1/cache/v4/multi-put"
        )
        assert daemon.request("GET", "/v1/cache/v4/stats")[0] == 404
        assert daemon.server.service.cache.stats.stores == 0

    def test_malformed_block_is_400_with_the_parser_message(self, daemon):
        status, _, reply = daemon.post_job(
            {"source": "forward optimization x { garbage }"}
        )
        assert status == 400
        assert json.loads(reply)["error"] == (
            "unparsable Cobalt source: line 1, col 34: "
            "expected 'followed' (got '}')"
        )

    def test_garbage_request_line_is_400(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port), 10) as sock:
            sock.sendall(b"utter nonsense\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert daemon.request("GET", "/v1/healthz")[0] == 200

    def test_wait_job_round_trips_canonical(self, daemon):
        status, _, body = daemon.post_job({"source": CONST_PROP, "wait": True})
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "done"
        # the envelope kind routes the document; the job's own kind must
        # not clobber it (regression: "kind" used to come out as "suite")
        assert doc["kind"] == "job"
        assert doc["job_kind"] == "suite"
        # compare against a local serial run of the same single pattern
        from repro.cli import parse_blocks
        from repro.cobalt.dsl import Optimization

        items = [Optimization(i) if not isinstance(i, Optimization) else i
                 for i in parse_blocks(CONST_PROP)]
        local = verify_suite(FAST, analyses=[], optimizations=items)
        assert doc["result"]["canonical"] == local.canonical()
        assert doc["result"]["suite"]["kind"] == "suite-report"

    def test_poll_and_stream(self, daemon):
        status, _, body = daemon.post_job({"source": CONST_PROP})
        assert status == 202
        job_id = json.loads(body)["id"]

        status, headers, body = daemon.request(
            "GET", f"/v1/jobs/{job_id}/events"
        )
        assert status == 200
        events = [json.loads(line) for line in body.splitlines() if line]
        kinds = [e.get("event") or e.get("kind") for e in events]
        assert kinds[0] == "started"
        assert "report" in kinds
        assert kinds[-1] == "done"

        status, _, body = daemon.request("GET", f"/v1/jobs/{job_id}")
        assert status == 200
        assert json.loads(body)["status"] == "done"


class TestHTTPLimits:
    def test_rate_limit_429_with_retry_after(self):
        fixture = _start_daemon(rate=0.0, burst=2.0)
        try:
            seen = []
            for _ in range(3):
                status, headers, _ = fixture.post_job(
                    {"optimizations": []},
                    headers={"X-Repro-Client": "greedy"},
                )
                seen.append((status, headers))
            assert [s for s, _ in seen[:2]] == [202, 202]
            status, headers = seen[2]
            assert status == 429
            assert "Retry-After" in headers
        finally:
            fixture.server.request_stop()
            fixture.thread.join(timeout=30)

    def test_distinct_clients_have_distinct_budgets(self):
        fixture = _start_daemon(rate=0.0, burst=1.0)
        try:
            a1 = fixture.post_job({"optimizations": []},
                                  headers={"X-Repro-Client": "a"})[0]
            b1 = fixture.post_job({"optimizations": []},
                                  headers={"X-Repro-Client": "b"})[0]
            a2 = fixture.post_job({"optimizations": []},
                                  headers={"X-Repro-Client": "a"})[0]
            assert (a1, b1, a2) == (202, 202, 429)
        finally:
            fixture.server.request_stop()
            fixture.thread.join(timeout=30)

    def test_header_rotation_cannot_bypass_address_budget(self):
        # X-Repro-Client is client-supplied: rotating it mints per-client
        # buckets, but they all drain one per-address aggregate (8x the
        # per-client budget), so spoofed submissions still hit 429.
        fixture = _start_daemon(rate=0.0, burst=1.0)
        try:
            statuses = [
                fixture.post_job(
                    {"optimizations": []},
                    headers={"X-Repro-Client": f"spoof-{i}"},
                )[0]
                for i in range(9)
            ]
            assert statuses[:8] == [202] * 8
            assert statuses[8] == 429
        finally:
            fixture.server.request_stop()
            fixture.thread.join(timeout=30)

    def test_overloaded_submission_is_429(self):
        svc = VerificationService(FAST, max_live_jobs=1)
        svc._jobs["blocker"] = Job("blocker", "suite")
        fixture = _start_daemon(service=svc)
        try:
            status, headers, _ = fixture.post_job({"optimizations": []})
            assert status == 429
            assert "Retry-After" in headers
            assert fixture.request("GET", "/v1/healthz")[0] == 200
        finally:
            del svc._jobs["blocker"]
            fixture.server.request_stop()
            fixture.thread.join(timeout=30)

    def test_oversized_body_is_413(self):
        fixture = _start_daemon(max_body_bytes=512)
        try:
            big = json.dumps(envelope("job-request", {
                "source": "x" * 4096
            })).encode()
            status, _, body = fixture.request("POST", "/v1/jobs", body=big)
            assert status == 413
            assert fixture.request("GET", "/v1/healthz")[0] == 200
        finally:
            fixture.server.request_stop()
            fixture.thread.join(timeout=30)

    def test_waiting_client_disconnect_leaves_its_job(self):
        # A "wait": true client that vanishes while its job runs: the job
        # finishes, pollers read it, and the daemon keeps serving.
        gate = threading.Event()
        svc = VerificationService(FAST)
        run_job = svc._run_job

        def gated_run(*args):
            assert gate.wait(60), "gate never opened"
            run_job(*args)

        svc._run_job = gated_run
        fixture = _start_daemon(service=svc)
        try:
            body = json.dumps(envelope("job-request", {
                "source": CONST_PROP, "wait": True,
            })).encode()
            with socket.create_connection(("127.0.0.1", fixture.port),
                                          10) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
                deadline = time.monotonic() + 60
                while not svc._jobs and time.monotonic() < deadline:
                    time.sleep(0.01)
            # the waiting client is gone; now let its job run
            [job_id] = list(svc._jobs)
            gate.set()
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status, _, reply = fixture.request("GET", f"/v1/jobs/{job_id}")
                assert status == 200
                if json.loads(reply)["status"] in ("done", "error"):
                    break
                time.sleep(0.05)
            assert json.loads(reply)["status"] == "done"
            assert svc.stats_wire()["jobs"]["live"] == 0
            status, _, reply = fixture.post_job(
                {"source": CONST_PROP, "wait": True}
            )
            assert status == 200
            assert json.loads(reply)["status"] == "done"
        finally:
            gate.set()
            fixture.server.request_stop()
            fixture.thread.join(timeout=30)

    def test_waiting_parks_no_thread(self, daemon):
        # A "wait": true submission awaits its job on the event loop.
        status, _, _ = daemon.post_job({"optimizations": [], "wait": True})
        assert status == 200
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if n.startswith("repro-wait")]

    def test_disconnect_mid_stream_does_not_kill_job(self, daemon):
        status, _, body = daemon.post_job({"source": CONST_PROP})
        assert status == 202
        job_id = json.loads(body)["id"]
        # Open the event stream raw and slam the connection shut while the
        # job is (likely still) running.
        with socket.create_connection(("127.0.0.1", daemon.port), 10) as sock:
            sock.sendall(
                f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode()
            )
            sock.recv(64)  # read a little, then vanish
        # The daemon keeps serving and the job still completes.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, _, body = daemon.request("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if json.loads(body)["status"] in ("done", "error"):
                break
            time.sleep(0.1)
        assert json.loads(body)["status"] == "done"
        assert daemon.request("GET", "/v1/healthz")[0] == 200


class TestConcurrentClients:
    N = 4

    def test_concurrent_clients_byte_identical_and_batched(self):
        fixture = _start_daemon(max_concurrent_jobs=self.N)
        try:
            results = [None] * self.N
            errors = []

            def worker(i):
                try:
                    status, _, body = fixture.post_job(
                        {"source": CONST_PROP, "wait": True},
                        headers={"X-Repro-Client": f"client-{i}"},
                    )
                    assert status == 200, body
                    results[i] = json.loads(body)["result"]["canonical"]
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(self.N)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not errors
            assert all(r is not None for r in results)

            from repro.cli import parse_blocks
            from repro.cobalt.dsl import Optimization

            items = [Optimization(i) if not isinstance(i, Optimization) else i
                     for i in parse_blocks(CONST_PROP)]
            local = verify_suite(FAST, analyses=[], optimizations=items)
            assert set(results) == {local.canonical()}

            _, _, body = fixture.request("GET", "/v1/stats")
            stats = json.loads(body)
            # Cross-request dedupe actually happened: a job waited on
            # another's search, or replayed the shared cache.
            assert (
                stats["broker"]["coalesced"] >= 1
                or stats["cache"]["hits"] >= 1
            )
            assert stats["jobs"]["completed"] == self.N
        finally:
            fixture.server.request_stop()
            fixture.thread.join(timeout=30)


@pytest.mark.slow
class TestFullSuiteOverHTTP:
    """The acceptance bar: 8 concurrent clients, the full E1 suite each,
    byte-identical to a serial local run, with batching visible in /stats."""

    N = 8

    def test_eight_clients_full_suite(self):
        fixture = _start_daemon(max_concurrent_jobs=self.N)
        try:
            results = [None] * self.N
            errors = []

            def worker(i):
                try:
                    status, _, body = fixture.post_job(
                        {"wait": True},
                        headers={"X-Repro-Client": f"client-{i}"},
                        timeout=3600.0,
                    )
                    assert status == 200, body
                    results[i] = json.loads(body)["result"]["canonical"]
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(self.N)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            local = verify_suite(FAST)
            assert set(results) == {local.canonical()}

            _, _, body = fixture.request("GET", "/v1/stats")
            stats = json.loads(body)
            assert (
                stats["broker"]["coalesced"] >= 1
                or stats["cache"]["hits"] >= 1
            )
        finally:
            fixture.server.request_stop()
            fixture.thread.join(timeout=60)
