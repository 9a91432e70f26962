"""Job execution for the daemon.

:class:`VerificationService` is the job queue: it validates wire requests
and runs each job on a thread pool with the stock
:class:`~repro.verify.checker.SoundnessChecker`, exactly as a local run
does, streaming progress events to whoever is watching the job.  The
service lends every job's checker two shared objects and nothing else:

* one :class:`~repro.verify.cache.ProofCache`, whose single-flight claims
  make concurrent jobs prove each distinct obligation once — a job that
  misses a key another job is proving waits for that search and replays
  its verdict through the ordinary cache lookup;
* with ``--jobs > 1``, one long-lived process pool
  (:func:`repro.verify.parallel.make_executor`), built on first use.

Byte-identity argument: ``SoundnessReport.canonical()`` renders only
names and verdicts, and verdicts are deterministic per obligation
*content* (the proof cache already replays them across pattern names), so
a verdict served from another job's search cannot change any canonical
report.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import VerifyOptions
from repro.service.wire import (
    WireError,
    decode_envelope,
    envelope,
    prover_options_from_wire,
    suite_report_to_wire,
)
from repro.verify.cache import INTERNAL_IDENTITY, ProofCache
from repro.verify.checker import SoundnessChecker

#: VerifyOptions fields a *client* may set over the wire.  Everything
#: else — cache locations, pool width — is operator policy.
CLIENT_OPTION_FIELDS = frozenset({"prover", "obligation_timeout_s"})

#: Option fields that are *refused* (400) rather than silently ignored
#: when a client sends them, so a client learns it was not honoured.
#: Besides the operator's ``jobs`` and ``cache_dir`` these are the fields
#: of removed axes: the external-solver backends (``backend``,
#: ``solver_cmd``, ``solver_timeout_s``, ``max_session_queries``, the
#: older ``solver_session``) and the network cache tier (``cache_url``,
#: ``cache_timeout_s``).  Silently dropping ``backend`` would verify under
#: a different regime than the client believes it asked for.
FORBIDDEN_OPTION_FIELDS = frozenset({
    "backend",
    "solver_cmd",
    "solver_timeout_s",
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
        #: Called once, in registration order, when the job finishes or
        #: fails (see :meth:`add_end_listener`).
        self._end_listeners: List[Callable[[], None]] = []

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
        self._end(JOB_DONE, {"event": "done", "job": self.id, "result": result},
                  result=result)

    def fail(self, message: str) -> None:
        self._end(JOB_ERROR, {"event": "error", "job": self.id, "error": message},
                  error=message)

    def _end(self, status: str, event: dict, *, result: Optional[dict] = None,
             error: Optional[str] = None) -> None:
        with self._cond:
            # The listeners run before the end is visible, under the lock
            # every reader takes: the job table's live count has dropped by
            # the time anyone sees the job finished.
            listeners, self._end_listeners = self._end_listeners, []
            for listener in listeners:
                listener()
            self.result = result
            self.error = error
            self.status = status
            self._events.append(event)
            self._cond.notify_all()

    def add_end_listener(self, listener: Callable[[], None]) -> bool:
        """Call ``listener`` once when the job ends; False (and no call)
        when it has already ended.

        Listeners run on the thread that ends the job, under the job's
        lock, so they must be quick and must not touch the job."""
        with self._cond:
            if self.finished:
                return False
            self._end_listeners.append(listener)
            return True

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


class _JobTable(Dict[str, Job]):
    """The service's job map, which counts its live (unfinished) jobs.

    Inserting a live job counts it and registers an end listener that
    uncounts it when it finishes or fails, so neither submission's
    overload check nor ``/v1/stats`` scans the map.  Only finished jobs
    are ever deleted.  Mutated under the service's job lock, which the
    listener also takes.  The listener holds the job's lock when it takes
    the job lock, and insertion nests them the other way round; that
    cannot deadlock, because a job is inserted before it runs."""

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__()
        self.live = 0
        self._lock = lock

    def __setitem__(self, job_id: str, job: Job) -> None:
        super().__setitem__(job_id, job)
        if job.add_end_listener(self._ended):
            self.live += 1

    def _ended(self) -> None:
        with self._lock:
            self.live -= 1


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


def _client_options(base: VerifyOptions, payload: dict) -> VerifyOptions:
    """Merge a client's restricted options over the daemon's base options.

    Clients steer the *proof search* (``prover``, per-obligation timeout);
    operator policy (caches, pool width) is fixed at
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
    from repro.cobalt.dsl import (
        BackwardPattern,
        ForwardPattern,
        Optimization,
        PureAnalysis,
    )
    from repro.cobalt.parser import parse_blocks
    from repro.il.parser import ParseError

    analyses, optimizations = [], []
    try:
        items = parse_blocks(source)
    except ParseError as exc:
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
    """The daemon's engine room: a job queue over a shared cache and pool.

    ``options`` is the operator's base :class:`VerifyOptions` — its
    cache configuration applies to every job; its ``jobs``
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
        max_jobs_kept: int = 256,
        max_live_jobs: Optional[int] = None,
    ) -> None:
        self.options = options or VerifyOptions()
        self.stats = ServiceStats()
        # One proof cache shared by every job's checker: L0 and its claims
        # dedupe across requests in-process, L1 exactly as a local checker
        # would.  Always at least a memory L0 — the daemon's whole point is
        # not re-proving what another request proved.
        self.cache: ProofCache = ProofCache(self.options.cache_dir)
        self._pool = None
        self._pool_failed = False
        self._pool_lock = threading.Lock()
        self._jobs_lock = threading.Lock()
        self._jobs = _JobTable(self._jobs_lock)
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
            live = self._jobs.live
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

    def _shared_pool(self, config):
        """The process pool every job's checker fans out into, built on the
        first call; workers re-initialize themselves for a task with
        another config, so one pool serves every job."""
        with self._pool_lock:
            if self._pool is None and not self._pool_failed:
                from repro.verify.parallel import make_executor

                self._pool = make_executor(config, self.options.jobs)
                self._pool_failed = self._pool is None
            return self._pool

    def _run_job(self, job: Job, options, analyses, optimizations) -> None:
        from repro.api import verify_suite

        job.start()
        try:
            checker = SoundnessChecker(
                options=options,
                proof_cache=self.cache,
                pool=self._shared_pool,
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
        cs = self.cache.stats
        with self._jobs_lock:
            jobs = {
                "submitted": self.stats.jobs_submitted,
                "completed": self.stats.jobs_completed,
                "failed": self.stats.jobs_failed,
                "live": self._jobs.live,
            }
        return {
            "backend": INTERNAL_IDENTITY,
            "jobs": jobs,
            # The proof searches behind the jobs (the key name predates
            # single flight): misses that entered a claim, the batches
            # dispatched to the prover, and misses another job answered.
            "broker": {
                "enqueued": cs.claims + cs.coalesced,
                "dispatches": cs.claim_batches,
                "coalesced": cs.coalesced,
            },
            "cache": {
                "hits": cs.hits,
                "misses": cs.misses,
                "stores": cs.stores,
                "entries": len(self.cache),
            },
        }

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting jobs, finish running ones, release the pool."""
        self._closed = True
        self._runner.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        try:
            self.cache.save()
        except Exception:
            pass
