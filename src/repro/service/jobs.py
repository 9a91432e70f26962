"""Job execution and cross-request obligation batching for the daemon.

Three layers, bottom to top:

* :class:`ObligationBroker` — a thread-safe batching queue in front of the
  process pool.  Checkers (one per job) hand it cache-missed obligations;
  a dispatcher thread collects everything that arrives within a short
  batching window, dedupes identical obligations *across jobs* by content
  key, groups by (prover config, backend spec, owner), and dispatches each
  group through :func:`repro.verify.parallel.discharge_parallel` over one
  long-lived shared executor.  Eight clients verifying the same suite
  concurrently thus share one proof search per distinct obligation.

* :class:`ServiceChecker` — a :class:`SoundnessChecker` whose
  ``_dispatch`` seam routes to the broker instead of spawning its own
  pool.  Everything else (obligation construction, cache read-through,
  report assembly) is the stock checker, which is what makes daemon
  reports byte-identical to local ones.

* :class:`VerificationService` — the job queue: validates wire requests,
  runs each job on a thread pool with a fresh checker over one *shared*
  :class:`ProofCache` and the shared broker, and streams progress events
  to whoever is watching the job.

Byte-identity argument: ``SoundnessReport.canonical()`` renders only
names and verdicts; verdicts are deterministic per obligation *content*
(the proof cache already replays them across pattern names), so routing
an obligation through the broker — or serving a waiter from another job's
in-flight search — cannot change any canonical report.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import VerifyOptions
from repro.service.wire import (
    WireError,
    decode_envelope,
    envelope,
    prover_options_from_wire,
    suite_report_to_wire,
)
from repro.verify.cache import ProofCache, config_fingerprint, obligation_key
from repro.verify.checker import ObligationResult, SoundnessChecker

#: VerifyOptions fields a *client* may set over the wire.  Everything
#: else — backend selection, solver commands, cache locations, pool
#: width — is operator policy: ``solver_cmd`` in particular would let any
#: client run an arbitrary command as the daemon user.
CLIENT_OPTION_FIELDS = frozenset({"prover", "obligation_timeout_s"})

#: Known VerifyOptions fields that are *refused* (400) rather than
#: silently ignored when a client sends them: silently dropping
#: ``solver_cmd`` or ``backend`` would verify under a different regime
#: than the client believes it asked for.
FORBIDDEN_OPTION_FIELDS = frozenset({
    "backend",
    "solver_cmd",
    "solver_timeout_s",
    # the removed session switch: still refused, so a client that sends it
    # learns it was not honoured
    "solver_session",
    "max_session_queries",
    "jobs",
    "cache_dir",
    "cache_url",
    "cache_timeout_s",
})


class ServiceOverloadedError(RuntimeError):
    """Too many live jobs: the submission was refused, try again later.

    Live jobs are never evicted from the job map, so without a bound a
    sustained submitter could grow the map and the runner queue without
    limit; the HTTP layer maps this to 429."""


@dataclass
class BrokerStats:
    """Counters proving (or disproving) that cross-request batching works."""

    #: obligations handed to the broker by all checkers
    enqueued: int = 0
    #: group dispatches into the process pool
    dispatches: int = 0
    #: unique obligations sent across all dispatches
    batched_obligations: int = 0
    #: waiters served by another waiter's in-flight search (cross- or
    #: intra-job duplicate obligations coalesced within one window)
    coalesced: int = 0
    #: dispatches whose obligations came from >1 distinct job — the
    #: smoking gun for cross-request batching
    shared_dispatches: int = 0
    #: largest single dispatch (unique obligations)
    max_batch: int = 0

    def to_wire(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "dispatches": self.dispatches,
            "batched_obligations": self.batched_obligations,
            "coalesced": self.coalesced,
            "shared_dispatches": self.shared_dispatches,
            "max_batch": self.max_batch,
        }


class _Work:
    """One obligation waiting for a verdict."""

    __slots__ = ("job_id", "owner", "obligation", "key", "config", "spec",
                 "backend", "timeout_s", "future")

    def __init__(self, job_id, owner, obligation, key, config, spec,
                 backend, timeout_s):
        self.job_id = job_id
        self.owner = owner
        self.obligation = obligation
        self.key = key
        self.config = config
        self.spec = spec
        self.backend = backend
        self.timeout_s = timeout_s
        self.future: "Future[ObligationResult]" = Future()


class ObligationBroker:
    """Batch obligations from concurrent jobs into shared pool dispatches.

    ``batch_window_s`` is the collection window: once work arrives, the
    dispatcher waits this long for more before dispatching, so obligations
    from near-simultaneous requests land in one batch.  ``jobs`` is the
    process-pool width shared by every dispatch."""

    def __init__(self, *, jobs: int = 1, batch_window_s: float = 0.05) -> None:
        self.jobs = max(1, int(jobs))
        self.batch_window_s = max(0.0, float(batch_window_s))
        self.stats = BrokerStats()
        self._queue: List[_Work] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._executor = None
        self._executor_failed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-broker", daemon=True
        )
        self._thread.start()

    # -- producer side --------------------------------------------------

    def submit(
        self,
        job_id: str,
        owner: str,
        obligations: Sequence[object],
        *,
        config,
        spec,
        backend,
        axiom_digest: str,
        timeout_s: Optional[float],
    ) -> List["Future[ObligationResult]"]:
        """Enqueue obligations; returns one future per obligation, in order."""
        items = [
            _Work(job_id, owner, ob, obligation_key(ob, axiom_digest),
                  config, spec, backend, timeout_s)
            for ob in obligations
        ]
        with self._wakeup:
            if self._closed:
                raise RuntimeError("broker is closed")
            self._queue.extend(items)
            self.stats.enqueued += len(items)
            self._wakeup.notify()
        return [w.future for w in items]

    def close(self) -> None:
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify()
        self._thread.join(timeout=10.0)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- dispatcher side ------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._queue:
                    return
            # Batching window: let near-simultaneous submitters catch up
            # before draining, so their obligations share a dispatch.
            if self.batch_window_s > 0:
                time.sleep(self.batch_window_s)
            with self._wakeup:
                batch, self._queue = self._queue, []
            if batch:
                try:
                    self._dispatch_batch(batch)
                except BaseException as exc:  # never kill the dispatcher
                    for work in batch:
                        if not work.future.done():
                            work.future.set_exception(exc)

    def _dispatch_batch(self, batch: List[_Work]) -> None:
        # Group by the verdict-relevant identity: prover config fingerprint,
        # backend spec, owner (the goal-name prefix; kept per-group so a
        # coalesced dispatch names goals exactly as a solo run would), and
        # the hard per-obligation timeout — _discharge applies the lead's
        # timeout to the whole group, so only same-timeout work may share a
        # dispatch (a shorter-timeout job must never kill, and thereby flip
        # to ``unknown``, an obligation another job would have proved).
        groups: Dict[Tuple[str, object, str, Optional[float]], List[_Work]] = {}
        for work in batch:
            key = (
                config_fingerprint(work.config),
                work.spec,
                work.owner,
                work.timeout_s,
            )
            groups.setdefault(key, []).append(work)
        for group in groups.values():
            self._dispatch_group(group)

    def _dispatch_group(self, group: List[_Work]) -> None:
        # In-flight dedup: identical obligations (by content key) from any
        # number of jobs get one proof search; extra waiters are served the
        # same verdict rebuilt under their own obligation name.
        by_key: Dict[str, List[_Work]] = {}
        unique: List[_Work] = []
        for work in group:
            waiters = by_key.setdefault(work.key, [])
            if not waiters:
                unique.append(work)
            waiters.append(work)
        self.stats.dispatches += 1
        self.stats.batched_obligations += len(unique)
        self.stats.coalesced += len(group) - len(unique)
        self.stats.max_batch = max(self.stats.max_batch, len(unique))
        if len({w.job_id for w in group}) > 1:
            self.stats.shared_dispatches += 1

        lead = unique[0]
        results = self._discharge(lead, [w.obligation for w in unique])
        for work, result in zip(unique, results):
            for i, waiter in enumerate(by_key[work.key]):
                if i == 0:
                    waiter.future.set_result(result)
                else:
                    # Same goal content, different pattern-local name:
                    # rebuild under the waiter's name (stats stay with the
                    # run that actually searched; canonical() ignores both).
                    waiter.future.set_result(ObligationResult(
                        waiter.obligation.name,
                        result.proved,
                        result.elapsed_s,
                        list(result.context),
                        cached=result.cached,
                        backend=result.backend,
                    ))

    def _ensure_executor(self, lead: _Work):
        if self._executor is None and not self._executor_failed:
            from repro.verify.parallel import make_executor

            self._executor = make_executor(lead.config, self.jobs, lead.spec)
            self._executor_failed = self._executor is None
        return self._executor

    def _discharge(self, lead: _Work, obligations) -> List[ObligationResult]:
        if self.jobs > 1 and len(obligations) > 1:
            executor = self._ensure_executor(lead)
            if executor is not None:
                from repro.verify.parallel import discharge_parallel

                return discharge_parallel(
                    lead.owner,
                    obligations,
                    lead.config,
                    jobs=self.jobs,
                    hard_timeout_s=lead.timeout_s,
                    backend_spec=lead.spec,
                    fallback_backend=lead.backend,
                    executor=executor,
                )
        return [lead.backend.discharge(lead.owner, ob) for ob in obligations]


class ServiceChecker(SoundnessChecker):
    """A checker whose pool is the daemon's shared broker.

    One is built per job (a fresh ``_analysis_cache`` keeps per-job report
    assembly deterministic) over the *shared* proof cache and broker."""

    def __init__(self, *args, broker: ObligationBroker,
                 job_id: str, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._broker = broker
        self._job_id = job_id
        from repro.prover.backends.base import worker_spec

        self._worker_spec = worker_spec(self.backend)

    def _dispatch(self, name, obligations):
        futures = self._broker.submit(
            self._job_id,
            name,
            obligations,
            config=self.config,
            spec=self._worker_spec,
            backend=self.backend,
            axiom_digest=self._axiom_digest,
            timeout_s=self.obligation_timeout_s,
        )
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_ERROR = "error"


class Job:
    """One verification request: status, streamed events, final report."""

    def __init__(self, job_id: str, kind: str) -> None:
        self.id = job_id
        self.kind = kind
        self.status = JOB_QUEUED
        self.created_s = time.time()
        self.error: Optional[str] = None
        self.result: Optional[dict] = None
        self._events: List[dict] = []
        self._cond = threading.Condition()

    # -- producer (job runner thread) -----------------------------------

    def emit(self, event: dict) -> None:
        with self._cond:
            self._events.append(event)
            self._cond.notify_all()

    def start(self) -> None:
        with self._cond:
            self.status = JOB_RUNNING
        self.emit({"event": "started", "job": self.id})

    def finish(self, result: dict) -> None:
        with self._cond:
            self.result = result
            self.status = JOB_DONE
        self.emit({"event": "done", "job": self.id, "result": result})

    def fail(self, message: str) -> None:
        with self._cond:
            self.error = message
            self.status = JOB_ERROR
        self.emit({"event": "error", "job": self.id, "error": message})

    # -- consumer (HTTP handlers) ---------------------------------------

    @property
    def finished(self) -> bool:
        return self.status in (JOB_DONE, JOB_ERROR)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True when it did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self.finished:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def wait_events(
        self, cursor: int, timeout: float = 10.0
    ) -> Tuple[List[dict], int, bool]:
        """Events past ``cursor``: ``(new_events, new_cursor, finished)``.

        Blocks up to ``timeout`` for at least one new event (or job end),
        so streamers poll without spinning."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._events) <= cursor and not self.finished:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            events = self._events[cursor:]
            return events, cursor + len(events), self.finished

    def to_wire(self) -> dict:
        with self._cond:
            data = {
                "id": self.id,
                "job_kind": self.kind,
                "status": self.status,
                "events": len(self._events),
            }
            if self.error is not None:
                data["error"] = self.error
            if self.result is not None:
                data["result"] = self.result
            return data


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


def _client_options(base: VerifyOptions, payload: dict) -> VerifyOptions:
    """Merge a client's restricted options over the daemon's base options.

    Clients steer the *proof search* (``prover``, per-obligation timeout);
    operator policy (backend, solvers, caches, pool width) is fixed at
    daemon startup.  Known-but-forbidden fields are refused loudly."""
    raw = payload.get("options")
    if raw is None:
        return base
    if not isinstance(raw, dict):
        raise WireError("options must be an object")
    forbidden = sorted(set(raw) & FORBIDDEN_OPTION_FIELDS)
    if forbidden:
        raise WireError(
            "client options may not set operator policy fields: "
            + ", ".join(forbidden)
        )
    from dataclasses import replace

    updates = {}
    if "prover" in raw:
        if not isinstance(raw["prover"], dict):
            raise WireError("options.prover must be an object")
        updates["prover"] = prover_options_from_wire(raw["prover"])
    if "obligation_timeout_s" in raw:
        value = raw["obligation_timeout_s"]
        if value is not None and not isinstance(value, (int, float)):
            raise WireError("options.obligation_timeout_s must be a number")
        updates["obligation_timeout_s"] = value
    if not updates:
        return base
    return replace(base, **updates)


def _split_blocks(source: str):
    """Parse Cobalt source into (analyses, optimizations)."""
    from repro.cli import parse_blocks
    from repro.cobalt.dsl import (
        BackwardPattern,
        ForwardPattern,
        Optimization,
        PureAnalysis,
    )

    analyses, optimizations = [], []
    try:
        items = parse_blocks(source)
    except SystemExit as exc:
        # The CLI parser aborts via SystemExit; over the wire that is a
        # client error, not a daemon exit.
        raise WireError(f"unparsable Cobalt source: {exc}") from None
    for item in items:
        if isinstance(item, PureAnalysis):
            analyses.append(item)
        elif isinstance(item, Optimization):
            optimizations.append(item)
        elif isinstance(item, (ForwardPattern, BackwardPattern)):
            optimizations.append(Optimization(item))
        else:
            raise WireError(f"unsupported block in source: {item!r}")
    return analyses, optimizations


def _suite_subset(names: Optional[Sequence[str]], pool, kind: str):
    """Resolve a list of names against the shipped suite (None = all)."""
    if names is None:
        return None
    if not isinstance(names, (list, tuple)) or not all(
        isinstance(n, str) for n in names
    ):
        raise WireError(f"{kind} must be a list of names")
    by_name = {item.name: item for item in pool}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise WireError(f"unknown {kind}: {', '.join(sorted(unknown))}")
    return [by_name[n] for n in names]


@dataclass
class ServiceStats:
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0


class VerificationService:
    """The daemon's engine room: a job queue over shared cache + broker.

    ``options`` is the operator's base :class:`VerifyOptions` — its
    backend/solver/cache configuration applies to every job; its ``jobs``
    width sizes the shared process pool.  ``max_concurrent_jobs`` bounds
    the job-runner thread pool (queued jobs wait, nothing is dropped up to
    ``max_live_jobs`` — beyond that, submissions are refused with
    :class:`ServiceOverloadedError` so the queue cannot grow without
    bound).  ``max_live_jobs`` defaults to eight queued jobs per runner
    slot."""

    def __init__(
        self,
        options: Optional[VerifyOptions] = None,
        *,
        max_concurrent_jobs: int = 8,
        batch_window_s: float = 0.05,
        max_jobs_kept: int = 256,
        max_live_jobs: Optional[int] = None,
    ) -> None:
        self.options = options or VerifyOptions()
        self.stats = ServiceStats()
        # One proof cache shared by every job's checker: L0 dedups across
        # requests in-process, L1/L2 exactly as a local checker would.
        # Always at least a memory L0 — the daemon's whole point is not
        # re-proving what another request proved.
        remote = None
        if self.options.cache_url:
            from repro.verify.netcache import CacheClient

            remote = CacheClient(
                self.options.cache_url, timeout_s=self.options.cache_timeout_s
            )
        self.cache: ProofCache = ProofCache(
            self.options.cache_dir, remote=remote
        )
        self.broker = ObligationBroker(
            jobs=self.options.jobs, batch_window_s=batch_window_s
        )
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._max_jobs_kept = max_jobs_kept
        if max_live_jobs is None:
            max_live_jobs = max(1, max_concurrent_jobs) * 8
        self._max_live_jobs = max(1, int(max_live_jobs))
        self._runner = ThreadPoolExecutor(
            max_workers=max(1, max_concurrent_jobs),
            thread_name_prefix="repro-job",
        )
        self._closed = False

    # -- submission ------------------------------------------------------

    def submit(self, body: dict) -> Job:
        """Validate one ``job_request`` envelope and queue the job."""
        payload = decode_envelope(body, kind="job-request")
        if self._closed:
            raise RuntimeError("service is shutting down")
        options = _client_options(self.options, payload)
        source = payload.get("source")
        if source is not None and not isinstance(source, str):
            raise WireError("source must be a Cobalt source string")
        if source is not None:
            analyses, optimizations = _split_blocks(source)
            if not analyses and not optimizations:
                raise WireError("source contains no blocks to verify")
        else:
            from repro import opts as suite

            analyses = _suite_subset(
                payload.get("analyses"), suite.ALL_ANALYSES, "analyses"
            )
            optimizations = _suite_subset(
                payload.get("optimizations"),
                suite.ALL_OPTIMIZATIONS,
                "optimizations",
            )
        job = Job(uuid.uuid4().hex, "suite")
        with self._jobs_lock:
            live = sum(1 for j in self._jobs.values() if not j.finished)
            if live >= self._max_live_jobs:
                raise ServiceOverloadedError(
                    f"{live} live job(s) already queued or running; "
                    "try again later"
                )
            self._jobs[job.id] = job
            while len(self._jobs) > self._max_jobs_kept:
                oldest = next(iter(self._jobs))
                if not self._jobs[oldest].finished:
                    break  # never evict live jobs
                del self._jobs[oldest]
            self.stats.jobs_submitted += 1
        self._runner.submit(self._run_job, job, options, analyses, optimizations)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    # -- execution -------------------------------------------------------

    def _run_job(self, job: Job, options, analyses, optimizations) -> None:
        from repro.api import verify_suite

        job.start()
        try:
            checker = ServiceChecker(
                options=options,
                proof_cache=self.cache,
                broker=self.broker,
                job_id=job.id,
            )

            def progress(report) -> None:
                job.emit(envelope("report", {"report": report.to_wire()}))

            suite = verify_suite(
                analyses=analyses,
                optimizations=optimizations,
                progress=progress,
                checker=checker,
            )
            result = envelope("suite-result", {
                "suite": suite_report_to_wire(suite),
                "canonical": suite.canonical(),
            })
            with self._jobs_lock:
                self.stats.jobs_completed += 1
            job.finish(result)
        except Exception as exc:
            with self._jobs_lock:
                self.stats.jobs_failed += 1
            job.fail(f"{type(exc).__name__}: {exc}")

    # -- observability ---------------------------------------------------

    def stats_wire(self) -> dict:
        cache_stats = {}
        if self.cache is not None:
            cs = self.cache.stats
            cache_stats = {
                "hits": cs.hits,
                "misses": cs.misses,
                "stores": cs.stores,
                "remote_hits": getattr(cs, "remote_hits", 0),
                "entries": len(self.cache),
            }
        with self._jobs_lock:
            jobs = {
                "submitted": self.stats.jobs_submitted,
                "completed": self.stats.jobs_completed,
                "failed": self.stats.jobs_failed,
                "live": sum(
                    1 for j in self._jobs.values() if not j.finished
                ),
            }
        return {
            "backend": self.options.backend,
            "jobs": jobs,
            "broker": self.broker.stats.to_wire(),
            "cache": cache_stats,
        }

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting jobs, finish running ones, release the pool."""
        self._closed = True
        self._runner.shutdown(wait=True)
        self.broker.close()
        if self.cache is not None:
            try:
                self.cache.save()
            except Exception:
                pass
