"""The stable public façade: options objects and top-level entry points.

The configuration surface had accreted kwarg-by-kwarg —
``SoundnessChecker(cache=, jobs=, obligation_timeout_s=)``, a CLI flag
per axis.  This module consolidates it into three frozen options
dataclasses and three functions:

* :class:`ProverOptions` — the proof-search limits;
* :class:`VerifyOptions` — how obligations are discharged (backend,
  external solver, parallelism, caching);
* :class:`EngineOptions` — how optimizations are executed;
* :func:`verify_suite` / :func:`check_optimization` /
  :func:`run_optimization` — the three things users actually do.

Everything here is re-exported from the top-level :mod:`repro` package::

    from repro import VerifyOptions, check_optimization
    report = check_optimization(SOURCE, VerifyOptions(backend="portfolio"))

The CLI builds its options through the same dataclasses, so the
command-line surface and the Python surface cannot drift; the pre-façade
constructor kwargs were removed after one release of deprecation (see the
migration table in docs/SERVICE.md).  Every options and result type here
carries ``to_wire()``/``from_wire()`` — the versioned JSON schema shared
by the verification daemon (:mod:`repro.service`), the CLI's ``--json``
output, and this Python façade.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.prover.backends.base import BACKEND_NAMES, BackendSpec
from repro.prover.core import ProverConfig

__all__ = [
    "EngineOptions",
    "ProverOptions",
    "RunResult",
    "SuiteReport",
    "UnsoundOptimizationError",
    "VerifyOptions",
    "check_optimization",
    "run_optimization",
    "verify_suite",
]


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProverOptions:
    """Search configuration for the internal prover (docs/PROVER.md)."""

    #: cooperative wall-clock limit per prover call
    timeout_s: float = 300.0
    max_rounds: int = 12
    max_instances: int = 20_000
    max_decisions: int = 200_000

    def to_config(self) -> ProverConfig:
        return ProverConfig(
            max_rounds=self.max_rounds,
            max_instances=self.max_instances,
            max_decisions=self.max_decisions,
            timeout_s=self.timeout_s,
        )

    @classmethod
    def from_config(cls, config: ProverConfig) -> "ProverOptions":
        return cls(
            timeout_s=config.timeout_s,
            max_rounds=config.max_rounds,
            max_instances=config.max_instances,
            max_decisions=config.max_decisions,
        )

    def to_wire(self) -> dict:
        """The versioned wire form (docs/SERVICE.md)."""
        from repro.service.wire import prover_options_to_wire

        return prover_options_to_wire(self)

    @classmethod
    def from_wire(cls, data: dict) -> "ProverOptions":
        from repro.service.wire import prover_options_from_wire

        return prover_options_from_wire(data)


@dataclass(frozen=True)
class VerifyOptions:
    """How proof obligations are discharged (docs/VERIFYING.md,
    docs/BACKENDS.md)."""

    #: ``"internal"``, ``"smtlib"``, or ``"portfolio"``
    backend: str = "internal"
    #: external solver argv (tuple, or a shell-ish string which is split);
    #: ``None`` auto-discovers ``z3``/``cvc5``/the z3py shim
    solver_cmd: Optional[Union[str, Tuple[str, ...]]] = None
    #: hard wall-clock limit per solver query (kill-on-timeout)
    solver_timeout_s: float = 30.0
    #: queries one solver process serves before it is recycled: 1 (a fresh
    #: process per obligation case), N > 1, or 0 (never); above 1 or at 0
    #: each case runs in a push/pop scope over a prelude asserted once.
    #: Verdicts and reports are identical either way (docs/BACKENDS.md)
    max_session_queries: int = 1
    #: obligation-level process-pool width (1 = serial)
    jobs: int = 1
    #: persistent proof-cache directory (the sharded CAS) — the L1 tier
    #: (docs/CACHING.md); a file path is refused.
    cache_dir: Optional[str] = None
    #: hard per-obligation wall-clock limit for pool workers
    obligation_timeout_s: Optional[float] = None
    prover: ProverOptions = ProverOptions()

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if isinstance(self.solver_cmd, str):
            object.__setattr__(
                self, "solver_cmd", tuple(shlex.split(self.solver_cmd))
            )
        elif self.solver_cmd is not None and not isinstance(self.solver_cmd, tuple):
            object.__setattr__(self, "solver_cmd", tuple(self.solver_cmd))

    def backend_spec(self) -> BackendSpec:
        return BackendSpec(
            name=self.backend,
            solver_cmd=self.solver_cmd,
            solver_timeout_s=self.solver_timeout_s,
            max_session_queries=self.max_session_queries,
        )

    def prover_config(self) -> ProverConfig:
        return self.prover.to_config()

    def to_wire(self) -> dict:
        """The versioned wire form (docs/SERVICE.md)."""
        from repro.service.wire import verify_options_to_wire

        return verify_options_to_wire(self)

    @classmethod
    def from_wire(cls, data: dict) -> "VerifyOptions":
        from repro.service.wire import verify_options_from_wire

        return verify_options_from_wire(data)


@dataclass(frozen=True)
class EngineOptions:
    """How the Cobalt engine executes optimizations (docs/ENGINE.md)."""

    #: re-run each pattern on its own output until it stops firing
    iterate: bool = False
    #: collect :class:`repro.cobalt.engine.EngineStats` counters
    collect_stats: bool = False

    def to_wire(self) -> dict:
        """The versioned wire form (docs/SERVICE.md)."""
        from repro.service.wire import engine_options_to_wire

        return engine_options_to_wire(self)

    @classmethod
    def from_wire(cls, data: dict) -> "EngineOptions":
        from repro.service.wire import engine_options_from_wire

        return engine_options_from_wire(data)


# ---------------------------------------------------------------------------
# Results and errors
# ---------------------------------------------------------------------------


class UnsoundOptimizationError(RuntimeError):
    """Raised by :func:`run_optimization` when verification rejects a pass."""

    def __init__(self, report) -> None:
        super().__init__(
            f"optimization {report.name!r} failed verification:\n{report.summary()}"
        )
        self.report = report


@dataclass
class SuiteReport:
    """Every report from one :func:`verify_suite` run."""

    reports: List[object] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: identity of the backend that discharged the suite
    backend: str = ""
    #: the checker's proof cache (None when caching was off), for stats
    cache: Optional[object] = field(default=None, repr=False)

    @property
    def sound(self) -> bool:
        return bool(self.reports) and all(r.sound for r in self.reports)

    def failures(self) -> List[object]:
        return [r for r in self.reports if not r.sound]

    def canonical(self) -> str:
        """Timing-free, byte-comparable rendering of the whole suite."""
        return "\n".join(r.canonical() for r in self.reports)

    def summary(self) -> str:
        lines = [
            f"{r.name:24s} {'SOUND' if r.sound else 'REJECTED':8s} "
            f"{r.elapsed_s:7.2f}s"
            for r in self.reports
        ]
        lines.append(
            f"[suite] {len(self.reports)} item(s), "
            f"{len(self.failures())} failure(s) in {self.elapsed_s:.2f}s"
        )
        return "\n".join(lines)

    def to_wire(self) -> dict:
        """The versioned wire form: ``from_wire`` round-trips this report
        with a byte-identical :meth:`canonical` (docs/SERVICE.md)."""
        from repro.service.wire import suite_report_to_wire

        return suite_report_to_wire(self)

    @classmethod
    def from_wire(cls, data: dict) -> "SuiteReport":
        from repro.service.wire import suite_report_from_wire

        return suite_report_from_wire(data)


@dataclass
class RunResult:
    """Outcome of :func:`run_optimization`."""

    program: object
    #: statements rewritten, per procedure name
    sites: Dict[str, List[int]] = field(default_factory=dict)
    #: the soundness report when verification was requested, else None
    report: Optional[object] = None

    @property
    def rewrites(self) -> int:
        return sum(len(v) for v in self.sites.values())

    def to_wire(self) -> dict:
        """The versioned wire form (docs/SERVICE.md)."""
        from repro.service.wire import run_result_to_wire

        return run_result_to_wire(self)

    @classmethod
    def from_wire(cls, data: dict) -> "RunResult":
        from repro.service.wire import run_result_from_wire

        return run_result_from_wire(data)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _make_checker(options: Optional[VerifyOptions]):
    from repro.verify.checker import SoundnessChecker

    return SoundnessChecker(options=options or VerifyOptions())


def _coerce_item(opt):
    """Accept an Optimization, a bare pattern, an analysis, or Cobalt source."""
    from repro.cobalt.dsl import (
        BackwardPattern,
        ForwardPattern,
        Optimization,
        PureAnalysis,
    )

    if isinstance(opt, (Optimization, PureAnalysis)):
        return opt
    if isinstance(opt, (ForwardPattern, BackwardPattern)):
        return Optimization(opt)
    if isinstance(opt, str):
        from repro.cobalt.parser import parse_blocks

        items = parse_blocks(opt)
        if len(items) != 1:
            raise ValueError(
                f"expected exactly one optimization/analysis block, got {len(items)}"
            )
        item = items[0]
        if isinstance(item, (ForwardPattern, BackwardPattern)):
            return Optimization(item)
        return item
    raise TypeError(f"cannot interpret {opt!r} as an optimization")


def check_optimization(opt, options: Optional[VerifyOptions] = None):
    """Prove one optimization (or pure analysis) sound, or reject it.

    ``opt`` may be an :class:`~repro.cobalt.dsl.Optimization`, a bare
    transformation pattern, a :class:`~repro.cobalt.dsl.PureAnalysis`, or a
    Cobalt source string containing exactly one block.  Returns a
    :class:`~repro.verify.checker.SoundnessReport`."""
    from repro.cobalt.dsl import Optimization, PureAnalysis

    item = _coerce_item(opt)
    checker = _make_checker(options)
    if isinstance(item, PureAnalysis):
        return checker.check_analysis(item)
    assert isinstance(item, Optimization)
    return checker.check_optimization(item)


def verify_suite(
    options: Optional[VerifyOptions] = None,
    *,
    analyses: Optional[Sequence] = None,
    optimizations: Optional[Sequence] = None,
    progress: Optional[Callable[[object], None]] = None,
    checker: Optional[object] = None,
) -> SuiteReport:
    """Verify the shipped optimization suite (or a chosen subset).

    ``progress`` is called with each :class:`SoundnessReport` as it
    completes (the CLI uses this to stream the table).  ``checker``
    injects a pre-built :class:`~repro.verify.checker.SoundnessChecker`
    (``options`` is then ignored) — the seam the service daemon uses so
    daemon jobs walk exactly this suite loop and stay byte-identical with
    local runs."""
    import time as _time

    from repro import opts as suite

    if checker is None:
        checker = _make_checker(options)
    if analyses is None:
        analyses = suite.ALL_ANALYSES
    if optimizations is None:
        optimizations = suite.ALL_OPTIMIZATIONS
    out = SuiteReport(backend=checker.backend.identity(), cache=checker.cache)
    start = _time.monotonic()
    for analysis in analyses:
        report = checker.check_analysis(analysis)
        out.reports.append(report)
        if progress:
            progress(report)
    for opt in optimizations:
        report = checker.check_optimization(opt)
        out.reports.append(report)
        if progress:
            progress(report)
    out.elapsed_s = _time.monotonic() - start
    return out


def run_optimization(
    opt,
    program,
    *,
    engine: EngineOptions = EngineOptions(),
    verify: Optional[VerifyOptions] = None,
) -> RunResult:
    """Run one optimization over a whole program (optionally verifying it).

    ``program`` may be a parsed :class:`~repro.il.program.Program` or IL
    source text.  With ``verify`` options the pass is proven sound first;
    an unsound pass raises :class:`UnsoundOptimizationError` instead of
    running — the paper's whole point."""
    from dataclasses import replace as _dc_replace

    from repro.cobalt.dsl import Optimization, PureAnalysis
    from repro.cobalt.engine import CobaltEngine
    from repro.cobalt.labels import standard_registry
    from repro.il import parse_program

    item = _coerce_item(opt)
    if isinstance(item, PureAnalysis):
        raise TypeError("run_optimization needs an optimization, not an analysis")
    assert isinstance(item, Optimization)
    if engine.iterate and not item.iterate:
        item = _dc_replace(item, iterate=True)

    result = RunResult(program=None)
    if verify is not None:
        report = check_optimization(item, verify)
        result.report = report
        if not report.sound:
            raise UnsoundOptimizationError(report)

    if isinstance(program, str):
        program = parse_program(program)
    cobalt_engine = CobaltEngine(standard_registry())
    out = program
    for proc in program.procs:
        transformed, applied = cobalt_engine.run_optimization(item, proc)
        out = out.with_proc(transformed)
        if applied:
            result.sites[proc.name] = sorted(inst.index for inst in applied)
    result.program = out
    if engine.collect_stats:
        result.engine_stats = cobalt_engine.stats  # type: ignore[attr-defined]
    return result
