"""The prover-backend protocol and backend resolution (docs/BACKENDS.md).

The original Cobalt did not prove obligations itself: it shipped them to
the external Simplify prover.  This package restores that architecture as
a pluggable axis — a :class:`ProverBackend` discharges one obligation and
returns an :class:`repro.verify.checker.ObligationResult`; the checker,
the parallel executor, and the CLI are all backend-agnostic.

Three implementations ship:

* ``internal`` (:mod:`repro.prover.backends.internal`) — the in-process
  incremental prover (the default, and the only one with no external
  dependency);
* ``smtlib`` (:mod:`repro.prover.backends.smtlib`) — emits SMT-LIB2
  (:mod:`repro.verify.smtlib`) to a ``z3``/``cvc5`` process over stdin,
  with hard wall-clock timeouts and bounded retries;
* ``portfolio`` (:mod:`repro.prover.backends.portfolio`) — races the two
  per obligation; the first conclusive verdict wins and the loser is
  cancelled.

Backend *specs* (:class:`BackendSpec`) are frozen, picklable descriptions
of a backend, so worker processes can construct their own solver
subprocesses (:mod:`repro.verify.parallel`).  Resolution degrades
gracefully: asking for ``smtlib``/``portfolio`` on a machine with no SMT
solver warns once on stderr and falls back to ``internal``, so fresh
checkouts and CI never hard-fail.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.prover.core import Prover, ProverConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checker imports us)
    from repro.verify.checker import ObligationResult
    from repro.verify.obligations import Obligation

#: The names accepted by ``--backend`` / ``VerifyOptions.backend``.
BACKEND_NAMES = ("internal", "smtlib", "portfolio")


@runtime_checkable
class ProverBackend(Protocol):
    """Anything that can discharge one proof obligation.

    Implementations must be deterministic given deterministic inputs: the
    suite-level reports are compared byte-for-byte across runs and across
    serial/parallel execution."""

    #: short backend family name ("internal", "smtlib", "portfolio")
    name: str

    def identity(self) -> str:
        """The cache identity: family plus anything that can change verdicts
        (prover mode, solver command, solver version).  Proof-cache entries
        produced by external solvers replay only under the same identity
        (:mod:`repro.verify.cache`)."""
        ...

    def discharge(
        self, owner: str, obligation: "Obligation", cancel: Optional[object] = None
    ) -> "ObligationResult":
        """Discharge one obligation; never raises for prover-side failures."""
        ...

    def close(self) -> None:
        """Release subprocesses/pools.  Idempotent."""
        ...


@dataclass(frozen=True)
class BackendSpec:
    """A picklable description of a backend, resolvable in any process."""

    name: str = "internal"
    #: External solver command: reads SMT-LIB2 on stdin and answers
    #: ``(check-sat)`` and ``(echo …)``.  ``None`` means auto-discover
    #: (:func:`discover_solver`).
    solver_cmd: Optional[Tuple[str, ...]] = None
    #: Hard wall-clock limit per solver query; the process is killed
    #: (never merely abandoned) when it fires.
    solver_timeout_s: float = 30.0
    #: Queries one solver process serves before it is recycled: ``1`` gives
    #: every obligation case a fresh process (no ``push``/``pop``); any
    #: other value keeps the prelude asserted and runs each case inside
    #: ``(push 1)``/``(pop 1)``, ``0`` never recycling.  Verdicts and cache
    #: keys are the same either way.
    max_session_queries: int = 1

    def __post_init__(self) -> None:
        if self.name not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.name!r}; expected one of {BACKEND_NAMES}"
            )
        if self.solver_cmd is not None and not isinstance(self.solver_cmd, tuple):
            object.__setattr__(self, "solver_cmd", tuple(self.solver_cmd))


#: Solver argv prefixes probed, in order, when no ``--solver-cmd`` is given.
#: The z3py shim comes last: it is slower to start but works wherever the
#: ``z3-solver`` wheel is installed without a ``z3`` binary on PATH.
_PROBE_ORDER = (
    ("z3", "-smt2"),
    ("cvc5", "--lang", "smt2"),
    ("cvc4", "--lang", "smt2"),
)


def _z3py_available() -> bool:
    try:  # pragma: no cover - depends on the environment
        import z3  # noqa: F401

        return True
    except Exception:
        return False


def discover_solver() -> Optional[Tuple[str, ...]]:
    """The first usable external-solver command on this machine, or None."""
    for argv in _PROBE_ORDER:
        if shutil.which(argv[0]):
            return argv
    if _z3py_available():
        return (sys.executable, "-m", "repro.prover.backends.z3shim")
    return None


_WARNED: set = set()


def _warn_once(message: str, *, quiet: bool = False) -> None:
    if quiet or message in _WARNED:
        return
    _WARNED.add(message)
    print(message, file=sys.stderr)


def build_internal_prover(config: ProverConfig) -> Prover:
    """A fresh prover over the full background axiom set."""
    from repro.verify.encode import CONSTRUCTORS, all_axioms

    return Prover(all_axioms(), constructors=CONSTRUCTORS, config=config)


def resolve_backend(
    spec: BackendSpec,
    config: ProverConfig,
    *,
    prover: Optional[Prover] = None,
    quiet: bool = False,
) -> ProverBackend:
    """Construct the backend ``spec`` describes, degrading gracefully.

    When ``smtlib``/``portfolio`` is requested but no solver command is
    given or discoverable, a one-line warning is printed (once per process)
    and the internal backend is returned instead — every entry point keeps
    working on a machine with no SMT solver installed."""
    from repro.prover.backends.internal import InternalBackend
    from repro.prover.backends.portfolio import PortfolioBackend
    from repro.prover.backends.smtlib import SmtLibBackend

    if spec.name == "internal":
        return InternalBackend(config, prover=prover)

    solver_cmd = spec.solver_cmd or discover_solver()
    if solver_cmd is None:
        _warn_once(
            f"[backends] no SMT solver found for backend {spec.name!r} "
            f"(looked for: {', '.join(a[0] for a in _PROBE_ORDER)}, z3py); "
            f"falling back to the internal prover",
            quiet=quiet,
        )
        return InternalBackend(config, prover=prover)
    resolved = replace(spec, solver_cmd=tuple(solver_cmd))
    external = SmtLibBackend(resolved, config)
    if spec.name == "smtlib":
        return external
    return PortfolioBackend(
        InternalBackend(config, prover=prover), external
    )


def worker_spec(backend: ProverBackend) -> BackendSpec:
    """The spec a worker process should resolve to mirror ``backend``.

    Solver discovery already happened (or degraded) in the parent, so the
    spec carries the *resolved* solver command — workers neither re-probe
    the PATH nor re-warn about a missing solver."""
    from repro.prover.backends.internal import InternalBackend
    from repro.prover.backends.portfolio import PortfolioBackend
    from repro.prover.backends.smtlib import SmtLibBackend

    if isinstance(backend, SmtLibBackend):
        return backend.spec
    if isinstance(backend, PortfolioBackend):
        return replace(backend.external.spec, name="portfolio")
    return BackendSpec(name="internal")
