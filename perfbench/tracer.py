"""Spans and counters recorded around calls into the program's layers.

The program is not instrumented: :class:`Tracer` replaces public functions
and methods of the layer modules with timing wrappers for as long as it is
installed, and puts the originals back afterwards.  A span records the
inclusive wall time of the outermost call of its name on a thread (a
recursive or nested call of the same name is not counted twice); spans
that start while no other span is open on their thread are *top-level*,
and their total is the share of an item's wall time the trace covers.

Totals are kept per *scope*, a thread-local label (the traced daemon sets
it to the job id while a job runs); untagged work lands in scope ``None``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class _Totals:
    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.covered_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self._scopes: Dict[object, _Totals] = defaultdict(_Totals)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, bool, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_scope(self, scope: object) -> None:
        self._local.scope = scope

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a total of the current thread's scope: a float amount is
        seconds, an int amount a count."""
        with self._lock:
            totals = self._scopes[getattr(self._local, "scope", None)]
            if isinstance(amount, float):
                totals.seconds[name] += amount
            else:
                totals.counts[name] += amount

    def totals(self, scope: object = None) -> _Totals:
        return self._scopes[scope]

    def scopes(self) -> Dict[object, _Totals]:
        return dict(self._scopes)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        skip_inside: Tuple[str, ...] = (),
    ) -> None:
        """Time every call of ``owner.attr`` under ``span``.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(tracer, args, result, elapsed_s, token)``, which runs after
        a call that returned.  Calls made while a span named in
        ``skip_inside`` is open are passed through untimed."""
        had = attr in vars(owner)
        stored = vars(owner).get(attr)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if span in stack or any(name in stack for name in skip_inside):
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            stack.append(span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with tracer._lock:
                    totals = tracer._scopes[getattr(tracer._local, "scope", None)]
                    totals.seconds[span] += elapsed
                    if not stack:
                        totals.covered_s += elapsed
            if after is not None:
                after(tracer, args, result, elapsed, token)
            return result

        self._patches.append((owner, attr, had, stored))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, had, stored = self._patches.pop()
            if had:
                setattr(owner, attr, stored)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, *installers: Callable[["Tracer"], None]):
        for install in installers:
            install(self)
        try:
            yield self
        finally:
            self.restore()


# ---------------------------------------------------------------------------
# Layer installers
# ---------------------------------------------------------------------------


def _count_obligations(tracer, args, result, elapsed, token) -> None:
    tracer.add("obligations.count", len(result))


def _cache_lookup(tracer, args, result, elapsed, token) -> None:
    tracer.add("cache.hits" if result is not None else "cache.misses", 1)


def _stores_before(args) -> int:
    return args[0].stats.stores


def _cache_store(tracer, args, result, elapsed, token) -> None:
    tracer.add("cache.stores", args[0].stats.stores - token)


#: Search counters read from each ``Prover.prove`` result.
PROVER_COUNTERS = (
    "instances", "rounds", "decisions", "lit_evals", "bindings",
    "dedup_hits", "struct_visits",
)


def _prover_result(tracer, args, result, elapsed, token) -> None:
    tracer.add("prover.calls", 1)
    tracer.add("prover.proved_s" if result.proved else "prover.refuted_s", elapsed)
    stats = result.stats
    for name in PROVER_COUNTERS:
        tracer.add(f"prover.{name}", int(getattr(stats, name)))


def install_verify_layers(tracer: Tracer) -> None:
    """Checker construction, obligation building, cache, encoding, prover."""
    from repro.logic import formulas
    from repro.prover import core
    from repro.verify import cache, checker, obligations

    tracer.wrap(checker.SoundnessChecker, "__init__", "checker.init")
    for method in ("forward_obligations", "backward_obligations", "analysis_obligations"):
        tracer.wrap(obligations.ObligationBuilder, method, "obligations.build",
                    after=_count_obligations)
    tracer.wrap(checker, "obligation_key", "cache.key")
    tracer.wrap(cache.ProofCache, "get", "cache.get", after=_cache_lookup)
    tracer.wrap(cache.ProofCache, "put", "cache.put", before=_stores_before,
                after=_cache_store)
    tracer.wrap(cache.ProofCache, "save", "cache.save")
    # discharge_obligation imports clausify from repro.logic.formulas at
    # call time; Prover.prove uses the name bound in repro.prover.core.
    # Axiom clausification while a checker is built is not encoding work.
    for module in (formulas, core):
        tracer.wrap(module, "clausify", "encode.clausify", skip_inside=("checker.init",))
    tracer.wrap(core.Prover, "prove", "prover.prove", after=_prover_result)


def install_engine_layers(tracer: Tracer) -> None:
    """The Cobalt engine's analysis, legality and rewrite phases."""
    from repro.cobalt.engine import CobaltEngine

    tracer.wrap(CobaltEngine, "run_pure_analysis", "engine.analysis")
    tracer.wrap(CobaltEngine, "legal_transformations", "engine.legal")
    tracer.wrap(CobaltEngine, "apply_pattern", "engine.apply")


def install_wire_layer(tracer: Tracer) -> None:
    """Report encoding for the wire: the suite envelope and its canonical."""
    from repro import api
    from repro.service import jobs

    tracer.wrap(jobs, "suite_report_to_wire", "wire.encode")
    tracer.wrap(api.SuiteReport, "canonical", "wire.encode")
