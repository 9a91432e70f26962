"""The in-process backend: the built-in prover behind the protocol."""

from __future__ import annotations

from typing import Optional

from repro.prover.core import Prover, ProverConfig


class InternalBackend:
    """Discharge obligations with the built-in Simplify-style prover.

    This is the default backend and the reference the others are measured
    against: it has no external dependency, its verdicts are deterministic,
    and its ``proved`` answers are trusted by the proof cache regardless of
    which backend later asks (an internal proof is backend-independent)."""

    name = "internal"

    def __init__(self, config: ProverConfig, *, prover: Optional[Prover] = None) -> None:
        self.config = config
        self._prover = prover

    @property
    def prover(self) -> Prover:
        if self._prover is None:
            from repro.prover.backends.base import build_internal_prover

            self._prover = build_internal_prover(self.config)
        return self._prover

    def identity(self) -> str:
        # Stored verdicts are scoped by this string, so it stays
        # byte-identical to the one written when the prover still had a
        # selectable mode: stores written then keep replaying.
        return "internal;mode=incremental"

    def discharge(self, owner, obligation, cancel=None):
        from repro.verify.checker import discharge_obligation

        result = discharge_obligation(
            self.prover, owner, obligation, self.config, cancel=cancel
        )
        result.backend = self.identity()
        return result

    def close(self) -> None:
        pass
