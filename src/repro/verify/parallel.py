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
``jobs=1`` path) runs one search at a time per process.  The pool is the
caller's: a checker builds one with :func:`make_executor` the first time it
has work to fan out, and the service daemon lends one to every job.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import List, Optional, Sequence, Tuple

from repro.prover import Prover, ProverConfig

#: Worker-process prover, built once per worker by the pool initializer and
#: reused for every obligation the worker discharges.
_WORKER_PROVER: Optional[Prover] = None
#: The config fingerprint the worker's prover was built for.
_WORKER_KEY: Optional[str] = None

#: One in-process proof search at a time.  ``Prover.run`` toggles the
#: process-wide gc, and its cooperative timeouts must not race GIL
#: contention from a concurrent search (two daemon jobs at ``--jobs 1``).
_SEARCH_LOCK = threading.Lock()


def discharge_in_process(
    prover: Prover, owner: str, obligations: Sequence[object], config: ProverConfig
):
    """Discharge ``obligations`` with ``prover`` in this process, in order,
    one search at a time across every thread."""
    from repro.verify.checker import discharge_obligation

    results = []
    for obligation in obligations:
        with _SEARCH_LOCK:
            results.append(discharge_obligation(prover, owner, obligation, config))
    return results


def _config_fp(config: ProverConfig) -> str:
    from repro.verify.cache import config_fingerprint

    return config_fingerprint(config)


def _worker_init(config: ProverConfig) -> None:
    global _WORKER_PROVER, _WORKER_KEY
    from repro.verify.encode import CONSTRUCTORS, all_axioms

    _WORKER_KEY = _config_fp(config)
    _WORKER_PROVER = Prover(all_axioms(), constructors=CONSTRUCTORS, config=config)


def _worker_discharge(task: Tuple[int, str, object, ProverConfig]):
    """Discharge one obligation in a worker process."""
    from repro.verify.checker import discharge_obligation

    index, owner, obligation, config = task
    if _WORKER_PROVER is None or _WORKER_KEY != _config_fp(config):
        _worker_init(config)
    return index, discharge_obligation(_WORKER_PROVER, owner, obligation, config)


def make_executor(config: ProverConfig, jobs: int) -> Optional[ProcessPoolExecutor]:
    """A long-lived worker pool for callers that dispatch many batches.

    A checker builds one on its first fan-out and keeps it for its
    lifetime; the service daemon keeps one across its whole lifetime and
    lends it to every job's checker, so worker processes (and their warm
    provers) are reused across items and requests instead of being
    respawned per batch.  Workers re-initialize themselves when a task
    arrives with a different config (the ``_WORKER_KEY`` staleness check),
    so one pool serves them all.

    Returns ``None`` when the platform cannot host a process pool at all —
    callers then discharge serially in process."""
    try:
        return ProcessPoolExecutor(
            max_workers=max(1, jobs),
            initializer=_worker_init,
            initargs=(config,),
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
    executor: ProcessPoolExecutor,
    fallback: Prover,
    hard_timeout_s: Optional[float] = None,
    _worker=None,
) -> List["ObligationResult"]:
    """Discharge ``obligations`` across ``executor``'s workers; results in
    order.

    ``executor`` is a pool from :func:`make_executor`; the call submits
    into it and leaves it running — the caller owns teardown.  ``fallback``
    is the in-process prover for obligations that cannot cross a process
    boundary or whose worker failed.

    ``_worker`` is a test seam: a replacement for the worker entry point
    (it must be a picklable top-level callable with the same contract).
    """
    from repro.verify.checker import ObligationResult

    worker = _worker or _worker_discharge
    timeout = _hard_timeout(config, hard_timeout_s)
    results: List[Optional[ObligationResult]] = [None] * len(obligations)

    # A task set that cannot be pickled cannot cross a process boundary at
    # all — discharge everything serially in this process.
    try:
        pickle.dumps((owner, list(obligations), config))
    except Exception:
        return discharge_in_process(fallback, owner, obligations, config)

    futures = [
        (i, ob, executor.submit(worker, (i, owner, ob, config)))
        for i, ob in enumerate(obligations)
    ]
    for i, ob, future in futures:
        try:
            index, result = future.result(timeout=timeout)
            results[index] = result
        except _FutureTimeout:
            future.cancel()
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
            results[i] = discharge_in_process(fallback, owner, [ob], config)[0]
    return results  # type: ignore[return-value]
