"""Fan proof obligations out across a process pool.

The paper's obligations are independent by construction (section 4: each is
a closed, non-inductive formula), so the suite's proof search is
embarrassingly parallel at obligation granularity.  This module provides
:func:`discharge_parallel`, which:

* submits each obligation to a ``concurrent.futures`` process pool whose
  workers each build the background prover once (in the pool initializer)
  and reuse it across tasks;
* returns results in the *original obligation order* regardless of
  completion order, so parallel reports are deterministic and comparable
  byte-for-byte with serial ones;
* enforces a per-obligation *hard* wall-clock timeout on top of the
  prover's own cooperative one, so a worker stuck outside the prover's
  timeout checks (deep E-graph recursion, pathological instantiation)
  yields ``unknown`` instead of stalling the suite;
* falls back to serial in-process discharge when the pool cannot be used at
  all (no ``fork``/``spawn`` support, pickling failure) or when individual
  tasks fail to round-trip, so callers never observe an exception where a
  verdict is expected.

In-process discharge (:func:`discharge_in_process`, also the checker's
``jobs=1`` path) runs one search at a time per process.
"""

from __future__ import annotations

import atexit
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import List, Optional, Sequence, Tuple

from repro.prover import ProverConfig

#: Worker-process backend, built once per worker by the pool initializer and
#: reused for every obligation the worker discharges.  Workers *own* their
#: backend — including the solver process of the ``smtlib`` and
#: ``portfolio`` backends — so obligation-level parallelism composes with
#: external solving without sharing process handles across the pool.  Each
#: worker closes its backend (killing any live solver process) on pool
#: teardown via ``atexit``.
_WORKER_BACKEND = None
_WORKER_KEY: Optional[Tuple[str, object]] = None
_WORKER_CLEANUP_REGISTERED = False

#: One in-process proof search at a time.  ``Prover.run`` toggles the
#: process-wide gc, and its cooperative timeouts must not race GIL
#: contention from a concurrent search (two daemon jobs at ``--jobs 1``).
_SEARCH_LOCK = threading.Lock()


def discharge_in_process(backend, owner: str, obligations: Sequence[object]):
    """Discharge ``obligations`` with ``backend`` in this process, in order,
    one search at a time across every thread."""
    results = []
    for obligation in obligations:
        with _SEARCH_LOCK:
            results.append(backend.discharge(owner, obligation))
    return results


def _config_fp(config: ProverConfig) -> str:
    from repro.verify.cache import config_fingerprint

    return config_fingerprint(config)


def _worker_close() -> None:
    """Release the worker's backend (and any warm solver session)."""
    global _WORKER_BACKEND, _WORKER_KEY
    backend, _WORKER_BACKEND, _WORKER_KEY = _WORKER_BACKEND, None, None
    if backend is not None:
        try:
            backend.close()
        except Exception:  # teardown must never take a worker down
            pass


def _worker_init(config: ProverConfig, spec=None) -> None:
    global _WORKER_BACKEND, _WORKER_KEY, _WORKER_CLEANUP_REGISTERED
    from repro.prover.backends.base import BackendSpec, resolve_backend

    _worker_close()  # a re-init replaces (and releases) the old backend
    # The key holds the spec *as tasks carry it* (possibly None), so the
    # per-task staleness check compares like with like and a default-spec
    # worker is not torn down and rebuilt on every obligation.
    _WORKER_KEY = (_config_fp(config), spec)
    # quiet=True: solver discovery (and any missing-solver warning) already
    # happened in the parent — worker specs carry the resolved command.
    _WORKER_BACKEND = resolve_backend(spec or BackendSpec(), config, quiet=True)
    if not _WORKER_CLEANUP_REGISTERED:
        # Pool workers exit normally on executor shutdown, so atexit is the
        # teardown hook: warm solver sessions never outlive the pool.
        atexit.register(_worker_close)
        _WORKER_CLEANUP_REGISTERED = True


def _worker_discharge(task: Tuple[int, str, object, ProverConfig, object]):
    """Discharge one obligation in a worker process."""
    index, owner, obligation, config, spec = task
    if _WORKER_BACKEND is None or _WORKER_KEY != (_config_fp(config), spec):
        _worker_init(config, spec)
    return index, _WORKER_BACKEND.discharge(owner, obligation)


def make_executor(
    config: ProverConfig, jobs: int, backend_spec=None
) -> Optional[ProcessPoolExecutor]:
    """A long-lived worker pool for callers that dispatch many batches.

    The service daemon keeps one of these across its whole lifetime and
    lends it to every job's checker, so worker processes
    (and their warm provers/solver sessions) are reused across requests
    instead of being respawned per batch.  Workers re-initialize themselves
    when a task arrives with a different config/backend spec (the
    ``_WORKER_KEY`` staleness check), so one pool serves them all.

    Returns ``None`` when the platform cannot host a process pool at all —
    callers fall back to serial discharge, exactly like
    :func:`discharge_parallel` does internally."""
    try:
        return ProcessPoolExecutor(
            max_workers=max(1, jobs),
            initializer=_worker_init,
            initargs=(config, backend_spec),
        )
    except (OSError, ValueError):  # no usable start method / no semaphores
        return None


def _hard_timeout(config: ProverConfig, override: Optional[float]) -> float:
    if override is not None:
        return override
    # Generous: the prover's own timeout should fire first; the hard limit
    # only catches searches wedged outside the cooperative checks.
    return config.timeout_s * 1.5 + 30.0


def discharge_parallel(
    owner: str,
    obligations: Sequence[object],
    config: ProverConfig,
    *,
    jobs: int,
    hard_timeout_s: Optional[float] = None,
    backend_spec=None,
    fallback_backend=None,
    executor: Optional[ProcessPoolExecutor] = None,
    _worker=None,
) -> List["ObligationResult"]:
    """Discharge ``obligations`` across ``jobs`` workers; results in order.

    ``backend_spec`` (a picklable :class:`repro.prover.backends.BackendSpec`,
    default internal) tells each worker which backend to build; the parent
    should pass :func:`repro.prover.backends.worker_spec` so the resolved
    solver command travels with the task.  ``fallback_backend`` (default: a
    fresh internal backend) handles in-process fallback.

    ``executor`` lends a long-lived pool (see :func:`make_executor`): the
    call submits into it and leaves it running — the caller owns teardown.
    Without one, a pool is created and shut down per call.

    ``_worker`` is a test seam: a replacement for the worker entry point
    (it must be a picklable top-level callable with the same contract).
    """
    from repro.prover.backends.internal import InternalBackend
    from repro.verify.checker import ObligationResult

    worker = _worker or _worker_discharge
    timeout = _hard_timeout(config, hard_timeout_s)
    results: List[Optional[ObligationResult]] = [None] * len(obligations)
    fallback = fallback_backend or InternalBackend(config)

    # A task set that cannot be pickled cannot cross a process boundary at
    # all — discharge everything serially in this process.
    try:
        pickle.dumps((owner, list(obligations), config, backend_spec))
    except Exception:
        return discharge_in_process(fallback, owner, obligations)

    owns_executor = executor is None
    if owns_executor:
        executor = make_executor(
            config, min(jobs, len(obligations)), backend_spec
        )
        if executor is None:
            return discharge_in_process(fallback, owner, obligations)

    timed_out = False
    try:
        futures = [
            (i, ob, executor.submit(worker, (i, owner, ob, config, backend_spec)))
            for i, ob in enumerate(obligations)
        ]
        for i, ob, future in futures:
            try:
                index, result = future.result(timeout=timeout)
                results[index] = result
            except _FutureTimeout:
                future.cancel()
                timed_out = True
                results[i] = ObligationResult(
                    ob.name,
                    False,
                    timeout,
                    [
                        f"<hard timeout: obligation exceeded {timeout:.1f}s "
                        f"wall-clock in worker>"
                    ],
                )
            except Exception:
                # Broken pool, a result that would not unpickle, a worker
                # killed by the OS: redo this obligation in-process.
                results[i] = discharge_in_process(fallback, owner, [ob])[0]
    finally:
        if owns_executor:
            executor.shutdown(wait=not timed_out, cancel_futures=True)
    return results  # type: ignore[return-value]
