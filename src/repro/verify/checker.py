"""The soundness checker: orchestrates obligations and the prover.

``SoundnessChecker.check_optimization(opt)`` verifies, in order:

1. every pure analysis the optimization consumes (semantic labels may only
   be trusted once their defining analysis is proven sound);
2. the optimization's transformation pattern (F1–F3 or B1–B3).

A pattern is declared sound only if *every* obligation is proved.  Failed
obligations carry the prover's counterexample context, which is what made
the paper's checker useful as a debugging tool (section 6).

Obligations are independent of each other (the paper's non-inductive
design), which the checker exploits two ways:

* with ``jobs > 1`` unresolved obligations are fanned out across one
  process pool per checker (:mod:`repro.verify.parallel`) with
  deterministic result ordering;
* with a ``cache`` every verdict is stored in a persistent
  content-addressed store (:mod:`repro.verify.cache`), so re-verifying an
  unchanged optimization replays the stored verdicts instead of re-running
  proof search.

Either way each distinct obligation key is proved once per batch, and
checkers sharing one cache (the service daemon's jobs) prove it once
between them: a key another checker is already proving is waited for, not
searched again.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cobalt.dsl import BackwardPattern, ForwardPattern, Optimization, PureAnalysis
from repro.cobalt.labels import LabelRegistry, standard_registry
from repro.prover import Prover, ProverConfig, ProverStats, Result
from repro.verify.cache import (
    INTERNAL_IDENTITY,
    CachedVerdict,
    ProofCache,
    config_fingerprint,
    obligation_key,
)
from repro.verify.encode import CONSTRUCTORS, all_axioms, all_axioms_digest
from repro.verify.obligations import Obligation, ObligationBuilder


@dataclass
class ObligationResult:
    """Outcome of one obligation."""

    obligation: str
    proved: bool
    elapsed_s: float
    context: List[str] = field(default_factory=list)
    #: True when the verdict was replayed from the persistent proof cache
    #: rather than re-derived by the prover.
    cached: bool = False
    #: Prover observability counters, aggregated over the obligation's
    #: kind-split cases.  ``None`` for cached verdicts (no search ran).
    stats: Optional[ProverStats] = None
    #: Identity of the prover that produced this verdict
    #: (:data:`repro.verify.cache.INTERNAL_IDENTITY`; a replayed verdict
    #: carries the identity it was stored with).
    backend: str = INTERNAL_IDENTITY

    def to_wire(self) -> dict:
        """The versioned wire form (docs/SERVICE.md)."""
        from repro.service.wire import obligation_result_to_wire

        return obligation_result_to_wire(self)

    @classmethod
    def from_wire(cls, data: dict) -> "ObligationResult":
        from repro.service.wire import obligation_result_from_wire

        return obligation_result_from_wire(data)


@dataclass
class SoundnessReport:
    """Outcome of checking one pattern or analysis."""

    name: str
    results: List[ObligationResult] = field(default_factory=list)
    #: reports for the pure analyses this pattern depends on
    dependencies: List["SoundnessReport"] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def sound(self) -> bool:
        if self.error is not None:
            return False
        if not all(dep.sound for dep in self.dependencies):
            return False
        return bool(self.results) and all(r.proved for r in self.results)

    @property
    def elapsed_s(self) -> float:
        own = sum(r.elapsed_s for r in self.results)
        return own + sum(dep.elapsed_s for dep in self.dependencies)

    def failed_obligations(self) -> List[ObligationResult]:
        return [r for r in self.results if not r.proved]

    def summary(self) -> str:
        status = "SOUND" if self.sound else "REJECTED"
        parts = [f"{self.name}: {status} ({self.elapsed_s:.2f}s)"]
        for r in self.results:
            mark = "ok" if r.proved else "FAILED"
            parts.append(f"  {r.obligation}: {mark} ({r.elapsed_s:.2f}s)")
        if self.error:
            parts.append(f"  error: {self.error}")
        return "\n".join(parts)

    def canonical(self) -> str:
        """A timing-free rendering: identical runs give identical strings.

        Serial, parallel, and cache-warmed verifications of the same
        suite must all produce the same canonical report — this is what the
        determinism tests and benchmarks compare byte-for-byte."""
        lines: List[str] = []

        def emit(report: "SoundnessReport", indent: int) -> None:
            pad = "  " * indent
            status = "SOUND" if report.sound else "REJECTED"
            lines.append(f"{pad}{report.name}: {status}")
            for dep in report.dependencies:
                emit(dep, indent + 1)
            for r in report.results:
                mark = "proved" if r.proved else "failed"
                lines.append(f"{pad}  {r.obligation}: {mark}")
            if report.error:
                lines.append(f"{pad}  error: {report.error}")

        emit(self, 0)
        return "\n".join(lines)

    def prover_stats(self) -> ProverStats:
        """Aggregate prover counters over this report and its dependencies.

        Cached obligation results carry no counters (no search ran), so a
        fully warm report aggregates to zeros."""
        total = ProverStats()
        for dep in self.dependencies:
            total.merge(dep.prover_stats())
        for r in self.results:
            if r.stats is not None:
                total.merge(r.stats)
        return total

    def to_wire(self) -> dict:
        """The versioned wire form: ``from_wire`` round-trips this report
        with a byte-identical :meth:`canonical` (docs/SERVICE.md)."""
        from repro.service.wire import soundness_report_to_wire

        return soundness_report_to_wire(self)

    @classmethod
    def from_wire(cls, data: dict) -> "SoundnessReport":
        from repro.service.wire import soundness_report_from_wire

        return soundness_report_from_wire(data)


def discharge_obligation(
    prover: Prover,
    owner: str,
    obligation: Obligation,
    config: Optional[ProverConfig] = None,
) -> ObligationResult:
    """Discharge one obligation with the given prover.

    Obligations over an arbitrary statement are discharged one statement
    kind at a time: the top level of the case analysis is performed here,
    each sub-case by the prover.  This function is self-contained (no
    checker state) so worker processes can call it directly.
    """
    # Imported at call time so a wrapper installed on
    # ``repro.logic.formulas.clausify`` (perfbench/tracer.py) sees the call.
    from repro.logic.formulas import clausify

    seed_clauses = []
    for i, seed in enumerate(obligation.seeds):
        seed_clauses.extend(
            clausify(seed, origin="case-split-seed", prefix=f"sk_seed{i}_")
        )
    cases = obligation.cases()
    start = time.monotonic()
    if not cases:
        # An obligation with zero proof cases is an error outcome, never a
        # vacuous proof.
        return ObligationResult(
            obligation.name,
            False,
            time.monotonic() - start,
            [
                f"<obligation {obligation.name} produced no proof cases; "
                f"refusing a vacuous proof>"
            ],
            stats=ProverStats(),
        )
    proved = True
    context: List[str] = []
    stats = ProverStats()
    for case_name, goal in cases:
        result: Result = prover.prove(
            goal,
            extra_axioms=seed_clauses,
            name=f"{owner}:{case_name}",
            config=config,
        )
        stats.merge(result.stats)
        if not result.proved:
            proved = False
            context = [f"in case {case_name}:"] + result.context
            break
    elapsed = time.monotonic() - start
    return ObligationResult(obligation.name, proved, elapsed, context, stats=stats)


class SoundnessChecker:
    """Automatically proves Cobalt optimizations sound (or rejects them).

    Configure it with a :class:`repro.api.VerifyOptions`::

        SoundnessChecker(options=VerifyOptions(jobs=4, cache_dir=".proof-cache"))

    ``config=`` remains the supported way to hand over a bare
    :class:`ProverConfig` and overrides ``options.prover`` when both are
    given.  ``proof_cache=`` injects an already-constructed
    :class:`ProofCache` *object* — the seam the service daemon (and the
    cache tests) use to share one verdict store across many checkers;
    path-shaped caches are configured through ``options.cache_dir``.
    ``pool=`` lends a long-lived process pool for ``jobs > 1``: a callable
    ``(config)`` returning the executor (or ``None`` when the platform has
    none), called only when there is work to fan out — the daemon's one
    pool, built on first use and shared by every job.  Without one, the
    checker builds its own pool the first time it has work to fan out and
    shuts it down when the checker is collected.

    (The pre-façade ``cache=``/``jobs=``/``obligation_timeout_s=`` kwargs
    were removed after one release of deprecation; see the migration table
    in docs/SERVICE.md.)"""

    def __init__(
        self,
        registry: Optional[LabelRegistry] = None,
        *,
        analyses: Sequence[PureAnalysis] = (),
        config: Optional[ProverConfig] = None,
        options: Optional["VerifyOptions"] = None,
        proof_cache: Optional[ProofCache] = None,
        pool: Optional[Callable[[ProverConfig], object]] = None,
    ) -> None:
        from repro.api import VerifyOptions

        if options is None:
            options = VerifyOptions()
        self.options = options
        self.registry = registry or standard_registry()
        self.semantic_meanings: Dict[str, PureAnalysis] = {
            a.label_name: a for a in analyses
        }
        self.config = config if config is not None else options.prover_config()
        self._prover = Prover(
            all_axioms(), constructors=CONSTRUCTORS, config=self.config
        )
        self._analysis_cache: Dict[str, SoundnessReport] = {}
        if proof_cache is not None and not isinstance(proof_cache, ProofCache):
            raise TypeError(
                "proof_cache must be a ProofCache instance; configure a "
                "path through VerifyOptions(cache_dir=...)"
            )
        cache: Optional[ProofCache] = proof_cache
        if cache is None and options.cache_dir is not None:
            cache = ProofCache(options.cache_dir)
        self.cache: Optional[ProofCache] = cache
        self.jobs = max(1, int(options.jobs))
        self._pool = pool
        #: the pool this checker built for itself (``pool`` not lent), shut
        #: down when the checker is collected; False once building failed.
        self._own_pool = None
        #: hard per-obligation wall-clock limit for parallel workers (the
        #: prover's own cooperative timeout still applies everywhere).
        self.obligation_timeout_s = options.obligation_timeout_s
        self._axiom_digest = all_axioms_digest()
        # The hard wall-clock limit participates in the fingerprint: a
        # hard-timeout verdict is an ``unknown`` manufactured by this limit,
        # so it must not replay for callers running under a different one.
        self._config_fp = config_fingerprint(
            self.config, hard_timeout_s=self.obligation_timeout_s
        )

    # ------------------------------------------------------------------

    def register_analysis(self, analysis: PureAnalysis) -> None:
        """Make a pure analysis's label available to later patterns."""
        self.semantic_meanings[analysis.label_name] = analysis

    def _builder(self) -> ObligationBuilder:
        return ObligationBuilder(self.registry, self.semantic_meanings)

    def _discharge(self, name: str, obligations: Sequence[Obligation]) -> SoundnessReport:
        keys = [obligation_key(ob, self._axiom_digest) for ob in obligations]
        # One search per distinct key: the first obligation carrying a key
        # stands for every later one in the batch.
        first: Dict[str, int] = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        verdicts: Dict[str, Union[ObligationResult, CachedVerdict]] = {}
        cache = self.cache
        if cache is None:
            fresh = self._dispatch(name, [obligations[i] for i in first.values()])
            verdicts.update(zip(first, fresh))
        else:
            missed = []
            for key in first:
                hit = cache.get(key, self._config_fp)
                if hit is None:
                    missed.append(key)
                else:
                    verdicts[key] = hit
            while missed:
                # Prove our own claims (and release them) before waiting
                # on anyone else's, so no two checkers can wait on each
                # other.
                mine, theirs = cache.claim(missed, self._config_fp)
                try:
                    fresh = self._dispatch(name, [obligations[first[k]] for k in mine])
                    for key, result in zip(mine, fresh):
                        verdicts[key] = result
                        cache.put(
                            key,
                            proved=result.proved,
                            elapsed_s=result.elapsed_s,
                            context=result.context,
                            config_fp=self._config_fp,
                        )
                finally:
                    cache.release(mine, self._config_fp)
                settled = cache.settle(theirs, self._config_fp)
                verdicts.update(settled)
                missed = [key for key in theirs if key not in settled]
            # Persist fresh verdicts to L1; a fully warm pattern is a no-op.
            cache.save()

        report = SoundnessReport(name)
        for i, (ob, key) in enumerate(zip(obligations, keys)):
            verdict = verdicts[key]
            if isinstance(verdict, CachedVerdict):
                report.results.append(ObligationResult(
                    ob.name,
                    verdict.proved,
                    0.0,
                    list(verdict.context),
                    cached=True,
                    backend=verdict.backend,
                ))
            elif first[key] == i:
                report.results.append(verdict)
            else:
                # Same goal content under another name: no search ran for it.
                report.results.append(replace(
                    verdict, obligation=ob.name, elapsed_s=0.0,
                    context=list(verdict.context), stats=None,
                ))
        return report

    def _dispatch(
        self, name: str, obligations: Sequence[Obligation]
    ) -> List[ObligationResult]:
        """Discharge cache-missed obligations; results in obligation order.

        Routes through the process pool (``jobs > 1``) or the checker's own
        prover in this process, one search at a time.  Subclasses
        overriding it (tests) must stay order-preserving and
        verdict-deterministic so reports stay byte-identical."""
        from repro.verify.parallel import discharge_in_process, discharge_parallel

        executor = None
        if self.jobs > 1 and len(obligations) > 1:
            executor = self._executor()
        if executor is None:
            return discharge_in_process(self._prover, name, obligations, self.config)
        return discharge_parallel(
            name,
            obligations,
            self.config,
            executor=executor,
            fallback=self._prover,
            hard_timeout_s=self.obligation_timeout_s,
        )

    def _executor(self):
        """The lent pool, or this checker's own, built on first use; None
        when the platform cannot host a process pool."""
        if self._pool is not None:
            return self._pool(self.config)
        if self._own_pool is None:
            from repro.verify.parallel import make_executor

            pool = make_executor(self.config, self.jobs)
            self._own_pool = pool if pool is not None else False
            if pool is not None:
                # The finalizer holds the pool, not the checker, so the
                # checker can be collected; it also runs at interpreter exit.
                weakref.finalize(self, pool.shutdown, wait=True, cancel_futures=True)
        return self._own_pool or None

    # ------------------------------------------------------------------

    def suite_obligation_keys(
        self,
        analyses: Sequence[PureAnalysis] = (),
        optimizations: Sequence[Optimization] = (),
    ) -> List[str]:
        """Every obligation key the given items will generate, in order.

        This *simulates* the registration order the real ``check_*`` calls
        will use (analyses register their labels as they are checked;
        optimizations register their own analyses first), over a scratch
        copy of the checker's state — computing keys never mutates the
        checker.  Items whose obligations fail to build contribute no keys."""
        meanings: Dict[str, PureAnalysis] = dict(self.semantic_meanings)
        seen = set(self._analysis_cache)
        keys: List[str] = []

        def _add(obligations: Sequence[Obligation]) -> None:
            keys.extend(
                obligation_key(ob, self._axiom_digest) for ob in obligations
            )

        def _analysis(analysis: PureAnalysis) -> None:
            if analysis.name in seen:
                return
            seen.add(analysis.name)
            try:
                obs = ObligationBuilder(
                    self.registry, meanings
                ).analysis_obligations(analysis)
            except Exception:
                return
            _add(obs)
            meanings[analysis.label_name] = analysis

        for analysis in analyses:
            _analysis(analysis)
        for opt in optimizations:
            for analysis in opt.analyses:
                meanings[analysis.label_name] = analysis
            for analysis in opt.analyses:
                _analysis(analysis)
            pattern = opt.pattern
            builder = ObligationBuilder(self.registry, meanings)
            try:
                if isinstance(pattern, ForwardPattern):
                    obs = builder.forward_obligations(pattern)
                elif isinstance(pattern, BackwardPattern):
                    obs = builder.backward_obligations(pattern)
                else:
                    continue
            except Exception:
                continue
            _add(obs)
        return keys

    # ------------------------------------------------------------------

    def check_pattern(self, pattern) -> SoundnessReport:
        """Prove a transformation pattern's obligations (no dependencies)."""
        builder = self._builder()
        try:
            if isinstance(pattern, ForwardPattern):
                obligations = builder.forward_obligations(pattern)
            elif isinstance(pattern, BackwardPattern):
                obligations = builder.backward_obligations(pattern)
            else:
                raise TypeError(f"not a transformation pattern: {pattern!r}")
        except Exception as exc:  # translation failures reject the pattern
            return SoundnessReport(pattern.name, error=str(exc))
        return self._discharge(pattern.name, obligations)

    def check_analysis(self, analysis: PureAnalysis) -> SoundnessReport:
        """Prove a pure analysis sound (its label means its witness)."""
        cached = self._analysis_cache.get(analysis.name)
        if cached is not None:
            return cached
        builder = self._builder()
        try:
            obligations = builder.analysis_obligations(analysis)
        except Exception as exc:
            report = SoundnessReport(analysis.name, error=str(exc))
        else:
            report = self._discharge(analysis.name, obligations)
        self._analysis_cache[analysis.name] = report
        if report.sound:
            self.register_analysis(analysis)
        return report

    def check_optimization(self, opt: Optimization) -> SoundnessReport:
        """Prove an optimization sound: its analyses first, then its pattern.

        The profitability heuristic (``opt.choose``) is never examined —
        this is the paper's key factoring (section 2.3).
        """
        dependencies = []
        for analysis in opt.analyses:
            self.register_analysis(analysis)
        for analysis in opt.analyses:
            dependencies.append(self.check_analysis(analysis))
        report = self.check_pattern(opt.pattern)
        report.dependencies = dependencies
        return report
