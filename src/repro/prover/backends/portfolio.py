"""The portfolio backend: race the internal prover against an SMT solver.

Per obligation, the external solver runs in its own process (driven from
a helper thread) while the internal prover searches in-process; the first
*conclusive* verdict wins and the loser is cancelled — the subprocess is
killed, the internal search is stopped through the prover's cooperative
cancellation hook (``Prover.prove(cancel=...)``).

Verdict merging is deterministic, independent of which racer happened to
finish first (suite reports are compared byte-for-byte across runs):

1. if *either* backend proves the obligation, it is **proved** (the two
   can never disagree in the strong sense — both only ever answer
   "proved" soundly);
2. otherwise, if the external solver returned a conclusive countermodel,
   the failure context is the external model;
3. otherwise the failure context is the internal prover's counterexample
   context (the reproducible default — solver timeout noise never leaks
   into reports).

Only an external *proof* cancels the internal search; a countermodel does
not (rule 2 applies only after the internal search has failed on its own),
so the merged verdict is a pure function of the two backends' individual
answers, not of racing order.

Wall-clock cost: the race never waits for the loser.  When the internal
prover wins, the external process is killed immediately; when the internal
prover gives up first, the external solver is only awaited within the
remaining obligation budget.  The E9 benchmark asserts the portfolio stays
within 1.1x of the internal backend on the full obligation set.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional


class PortfolioBackend:
    """Race an :class:`InternalBackend` against an :class:`SmtLibBackend`."""

    name = "portfolio"

    def __init__(self, internal, external) -> None:
        self.internal = internal
        self.external = external

    def identity(self) -> str:
        return f"portfolio({self.internal.identity()}|{self.external.identity()})"

    def discharge(self, owner, obligation, cancel=None):
        from repro.verify.checker import ObligationResult

        start = time.monotonic()
        stop_external = threading.Event()
        external_done = threading.Event()
        external_outcome: dict = {}

        def external_cancelled() -> bool:
            return stop_external.is_set() or (cancel is not None and cancel())

        def run_external() -> None:
            try:
                proved, conclusive, context = self.external.run_cases(
                    obligation, cancel=external_cancelled
                )
                external_outcome["result"] = (proved, conclusive, context)
            except Exception as exc:  # never let a racer kill the checker
                external_outcome["result"] = (
                    False,
                    False,
                    [f"<external racer failed: {exc}>"],
                )
            finally:
                external_done.set()

        watcher = threading.Thread(
            target=run_external, name="repro-portfolio-external", daemon=True
        )
        watcher.start()

        def internal_cancelled() -> bool:
            if cancel is not None and cancel():
                return True
            # Stop the internal search once the external racer has *proved*
            # the obligation.  A countermodel (``sat``) never cancels it:
            # the emission is an abstraction, so external ``sat`` is
            # evidence, not a disproof — and letting it cancel would make
            # the merged verdict depend on which racer finished first.
            if external_done.is_set():
                result = external_outcome.get("result")
                return bool(result and result[0])
            return False

        internal_result = self.internal.discharge(
            owner, obligation, cancel=internal_cancelled
        )

        if internal_result.proved:
            # Internal win: kill the loser, keep the internal verdict (its
            # ``backend`` already names the internal identity, which the
            # proof cache trusts universally).
            stop_external.set()
            external_done.wait(timeout=5.0)
            return internal_result

        # Internal gave up (or was cancelled by an external verdict): the
        # external racer gets the remainder of its own budget.  That budget
        # is *per case*: a kind-split obligation runs one solver query per
        # statement kind, so waiting only one ``solver_timeout_s`` would
        # under-wait multi-case obligations and discard near-finished
        # external work.
        budget = self.external.spec.solver_timeout_s * len(obligation.cases())
        remaining = max(0.0, budget - (time.monotonic() - start)) + 1.0
        external_done.wait(timeout=remaining)
        stop_external.set()
        result = external_outcome.get("result")
        if result is not None:
            ext_proved, ext_conclusive, ext_context = result
            if ext_proved:
                return ObligationResult(
                    obligation.name,
                    True,
                    time.monotonic() - start,
                    [],
                    backend=self.external.identity(),
                )
            if ext_conclusive:
                return ObligationResult(
                    obligation.name,
                    False,
                    time.monotonic() - start,
                    ext_context,
                    backend=self.identity(),
                )
        return internal_result

    def close(self) -> None:
        self.internal.close()
        self.external.close()
