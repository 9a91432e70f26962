"""Pluggable prover backends (docs/BACKENDS.md).

``internal`` — the in-process incremental prover (default).
``smtlib`` — SMT-LIB2 emission sent to a ``z3``/``cvc5`` process over stdin.
``portfolio`` — race both per obligation; first proof wins, loser cancelled.
"""

from repro.prover.backends.base import (
    BACKEND_NAMES,
    BackendSpec,
    ProverBackend,
    build_internal_prover,
    discover_solver,
    resolve_backend,
    worker_spec,
)
from repro.prover.backends.internal import InternalBackend
from repro.prover.backends.portfolio import PortfolioBackend
from repro.prover.backends.smtlib import (
    SmtLibBackend,
    SolverOutcome,
    SolverSession,
    parse_solver_output,
    session_argv,
    solver_version,
)

__all__ = [
    "BACKEND_NAMES",
    "BackendSpec",
    "InternalBackend",
    "PortfolioBackend",
    "ProverBackend",
    "SmtLibBackend",
    "SolverOutcome",
    "SolverSession",
    "build_internal_prover",
    "discover_solver",
    "parse_solver_output",
    "resolve_backend",
    "session_argv",
    "solver_version",
    "worker_spec",
]
