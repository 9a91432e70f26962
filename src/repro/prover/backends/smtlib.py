"""The SMT-LIB backend: obligations discharged by an external solver.

This is the reproduction of the paper's actual architecture — Cobalt
shipped every obligation to the external Simplify prover (section 5).  We
ship modern SMT-LIB2 instead.  The whole contract for an external solver
is one sentence: a command that reads SMT-LIB2 on stdin and answers
``(check-sat)`` and ``(echo …)``.  ``z3 -in``, ``cvc5`` and the bundled
z3shim all do.

One driver, :class:`SolverSession`, runs every query.  A fresh solver
process is sent the prelude (:func:`repro.verify.smtlib.emit_prelude`);
each obligation case is then a goal tail plus ``(check-sat)``, and an
``(echo "marker")`` fence ends every answer.  ``max_session_queries``
says how many queries one process serves: ``1`` (the default) gives each
case a fresh process and sends no ``push``/``pop``; any other value runs
each case inside ``(push 1)``/``(pop 1)`` and recycles the process after
that many queries (``0``: never).

Recovery, one policy for every process (docs/BACKENDS.md):

* a missing solver binary is an error at once;
* a spawn failure, or a crash, EOF or broken pipe before the fence,
  respawns the process, replays the prelude and retries the query, up to
  :data:`SOLVER_RETRIES` times with exponential backoff, consulting the
  cancellation hook before each backoff;
* an answer with no verdict token, whether fenced or at a clean exit, is
  ``malformed solver output`` and is not retried: a deterministic solver
  would repeat it;
* no fence within the per-query deadline kills the process and reports
  ``timeout``.

Verdict mapping follows the internal prover's semantics (docs/PROVER.md):
``unsat`` on the negated goal means **proved**; ``sat`` means *not proved*,
with the model reported as the counterexample context (like a saturated
internal branch, it is evidence, not a disproof — the emission is an
abstraction); ``unknown``/timeout/error mean *not proved, inconclusive*.
"""

from __future__ import annotations

import os
import queue
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.prover.core import ProverConfig

#: Verdict-token lines recognized in solver output.
_STATUS_TOKENS = ("unsat", "sat", "unknown")

#: Lines of model text kept as counterexample context.
_MAX_MODEL_LINES = 40

#: Poll interval while waiting on a solver process (keeps cancellation and
#: the hard deadline responsive without busy-waiting).
_POLL_S = 0.01

#: Retries of a query whose process failed before answering, and the
#: backoff base: retry ``i`` (from 0) first sleeps ``RETRY_BACKOFF_S * 2**i``.
SOLVER_RETRIES = 2
RETRY_BACKOFF_S = 0.25


@dataclass
class SolverOutcome:
    """One solver query's structured result."""

    status: str  # "unsat" | "sat" | "unknown" | "timeout" | "cancelled" | "error"
    detail: str = ""
    model: Tuple[str, ...] = ()
    elapsed_s: float = 0.0
    attempts: int = 1


def parse_solver_output(text: str) -> Tuple[Optional[str], Tuple[str, ...]]:
    """Extract (verdict, model-lines) from raw solver stdout.

    The verdict is the first line that *is* a status token (solvers print
    warnings and, after ``(get-model)`` on unsat, error S-expressions; both
    are ignored).  Model lines are everything after a ``sat`` verdict —
    and *only* after ``sat`` — that is not an error line: trailing chatter
    after ``unsat``/``unknown`` (``(error "no model")`` spam, statistics) is
    not a model and must never be attached to the outcome."""
    verdict: Optional[str] = None
    model: List[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if verdict is None:
            if stripped in _STATUS_TOKENS:
                verdict = stripped
            continue
        if verdict != "sat":
            break
        if stripped and not stripped.startswith("(error"):
            model.append(line.rstrip())
    return verdict, tuple(model[:_MAX_MODEL_LINES])


def solver_version(cmd: Sequence[str], *, timeout_s: float = 5.0) -> str:
    """Best-effort version probe of a solver command.

    Successful probes are cached per process; a *failed* probe returns
    ``"unknown"`` without caching it, so a transient failure (a briefly
    overloaded machine, a blip in process spawning) does not permanently
    brand the solver unidentifiable — ``"unknown"`` flows into
    :meth:`SmtLibBackend.identity` and hence into proof-cache scoping
    (:mod:`repro.verify.cache` treats ``version=unknown`` external proofs
    as config-scoped precisely because the build is unidentified)."""
    key = tuple(cmd)
    hit = _VERSION_CACHE.get(key)
    if hit is not None:
        return hit
    for argv in (list(cmd) + ["--version"], [cmd[0], "--version"]):
        try:
            probe = subprocess.run(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=timeout_s,
                text=True,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        first = next((l.strip() for l in probe.stdout.splitlines() if l.strip()), "")
        if probe.returncode == 0 and first:
            version = first[:120]
            _VERSION_CACHE[key] = version
            return version
    return "unknown"


_VERSION_CACHE: dict = {}


# ---------------------------------------------------------------------------
# The solver driver
# ---------------------------------------------------------------------------


def session_argv(cmd: Sequence[str], *, incremental: bool = True) -> Tuple[str, ...]:
    """The argv that runs ``cmd``'s solver on SMT-LIB2 from stdin.

    ``z3`` needs ``-in`` to read stdin; ``cvc5``/``cvc4`` read it already
    and get ``--incremental`` only for a process that serves several
    queries.  Anything else — the bundled z3shim, scripted fake solvers in
    the tests, custom wrappers — is run as given."""
    cmd = tuple(cmd)
    base = os.path.basename(cmd[0])
    if base.startswith("z3"):
        return cmd + ("-in",)
    if base.startswith("cvc") and incremental:
        return cmd + ("--incremental",)
    return cmd


class SessionBroken(Exception):
    """One attempt at a query failed; ``kind`` picks the recovery:
    ``"crash"`` is retried on a fresh process, ``"malformed"`` and
    ``"wedge"`` end the query."""

    def __init__(self, kind: str, detail: str = "") -> None:
        super().__init__(detail or kind)
        self.kind = kind
        self.detail = detail


class _SessionCancelled(Exception):
    """The race was decided while this query was in flight."""


#: Sentinel the reader thread enqueues at solver-stdout EOF.
_EOF = object()


def _head(lines: Sequence[str]) -> str:
    return next((l for l in lines if l.strip()), "").strip()[:120]


class SolverSession:
    """One solver process at a time, driven over stdin/stdout.

    A fresh process is sent the prelude; each query is a goal tail plus
    ``(check-sat)``, and every command batch ends with a unique ``(echo
    "marker")`` fence — the reader collects lines until the marker comes
    back (quotes stripped: cvc5 echoes the literal, z3 the bare string).
    ``max_queries`` is how many queries one process serves (see the module
    docstring).  :meth:`check` never raises."""

    def __init__(
        self,
        cmd: Sequence[str],
        prelude_text: str,
        *,
        timeout_s: float = 30.0,
        max_queries: int = 1,
    ) -> None:
        self.cmd = tuple(cmd)
        self.prelude_text = prelude_text
        self.timeout_s = timeout_s
        self.max_queries = max(0, int(max_queries))
        #: processes started and queries sent over this session's lifetime
        self.spawns = 0
        self.queries = 0
        #: queries sent to the *current* process (recycling trigger)
        self._proc_queries = 0
        self._proc: Optional[subprocess.Popen] = None
        self._out: "queue.Queue" = queue.Queue()
        self._inbox: "queue.Queue" = queue.Queue()
        self._marker_seq = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def start(self) -> None:
        """Start a fresh process and send it the prelude.

        A missing binary raises ``FileNotFoundError``; any other spawn
        failure is a ``"crash"``."""
        self.close()
        try:
            proc = subprocess.Popen(
                list(self.cmd),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                bufsize=1,
            )
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise SessionBroken("crash", f"spawn failed: {exc}")
        self._proc = proc
        self.spawns += 1
        self._proc_queries = 0
        self._out = queue.Queue()
        self._inbox = queue.Queue()
        for target, pipe, name in (
            (self._pump, self._out, "repro-solver-reader"),
            (self._feed, self._inbox, "repro-solver-writer"),
        ):
            threading.Thread(
                target=target, args=(proc, pipe), name=name, daemon=True
            ).start()
        self._inbox.put(self.prelude_text)

    @staticmethod
    def _pump(proc: subprocess.Popen, out: "queue.Queue") -> None:
        try:
            for line in proc.stdout:
                out.put(line.rstrip("\n"))
        except (OSError, ValueError):  # pipe closed under the reader
            pass
        proc.stdout.close()
        out.put(_EOF)

    @staticmethod
    def _feed(proc: subprocess.Popen, inbox: "queue.Queue") -> None:
        """Write queued commands to the solver; ``None`` closes its stdin.

        Writing from a thread keeps a solver that stops reading from
        blocking the caller, whose deadline then still fires."""
        try:
            for text in iter(inbox.get, None):
                proc.stdin.write(text)
                proc.stdin.flush()
        except (OSError, ValueError):  # the process died; the reader says so
            pass
        try:
            proc.stdin.close()
        except (OSError, ValueError):  # unflushed text for a dead process
            pass

    def close(self) -> None:
        """End the current process: ``(exit)``, then terminate, then kill.
        Idempotent."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        self._inbox.put("(exit)\n")
        self._inbox.put(None)
        try:
            # Let the solver drain its stdin and honor (exit) before
            # escalating to terminate/kill.
            proc.wait(timeout=0.5)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=0.5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=1.0)

    def _kill(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
        self.close()

    # -- one attempt ---------------------------------------------------------

    def _next_marker(self, tag: str) -> str:
        self._marker_seq += 1
        return f"repro-{tag}-{self._marker_seq}"

    def _read_until(
        self, marker: str, deadline: float, cancel: Optional[object]
    ) -> Tuple[List[str], bool]:
        """Output lines up to the fence, and whether the fence came (False:
        the solver closed its output first)."""
        lines: List[str] = []
        while True:
            if cancel is not None and cancel():
                self._kill()
                raise _SessionCancelled()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill()
                raise SessionBroken(
                    "wedge", f"no answer within {self.timeout_s:.1f}s"
                )
            try:
                item = self._out.get(timeout=min(_POLL_S, remaining))
            except queue.Empty:
                continue
            if item is _EOF:
                return lines, False
            if item.strip().strip('"') == marker:
                return lines, True
            lines.append(item)

    def _exited(self, answer: List[str]) -> Tuple[str, Tuple[str, ...]]:
        """The verdict of a process that closed its output before the
        fence: a verdict token is accepted as it stands, output without
        one at a clean exit is malformed, anything else is a crash."""
        proc = self._proc
        try:
            code = proc.wait(timeout=1.0) if proc is not None else None
        except subprocess.TimeoutExpired:
            code = None
        self._kill()
        verdict, model = parse_solver_output("\n".join(answer))
        if verdict is not None:
            return verdict, model
        if code == 0 and _head(answer):
            raise SessionBroken("malformed", _head(answer))
        raise SessionBroken(
            "crash", f"solver exited with code {code} and no verdict"
        )

    def _query(
        self, tail_lines: Sequence[str], cancel: Optional[object]
    ) -> Tuple[str, Tuple[str, ...]]:
        deadline = time.monotonic() + self.timeout_s
        if not self.alive:
            self.start()
        self.queries += 1
        self._proc_queries += 1
        marker = self._next_marker("q")
        body = "\n".join(tail_lines) + f'\n(check-sat)\n(echo "{marker}")\n'
        self._inbox.put(body if self.max_queries == 1 else "(push 1)\n" + body)
        answer, fenced = self._read_until(marker, deadline, cancel)
        if not fenced:
            return self._exited(answer)
        verdict, _ = parse_solver_output("\n".join(answer))
        if verdict is None:
            self._kill()
            raise SessionBroken("malformed", _head(answer))
        model: Tuple[str, ...] = ()
        if verdict == "sat":
            mmarker = self._next_marker("m")
            self._inbox.put(f'(get-model)\n(echo "{mmarker}")\n')
            raw, _ = self._read_until(mmarker, deadline, cancel)
            model = tuple(
                l.rstrip()
                for l in raw
                if l.strip() and not l.strip().startswith("(error")
            )[:_MAX_MODEL_LINES]
        if self.max_queries and self._proc_queries >= self.max_queries:
            self.close()
        else:
            self._inbox.put("(pop 1)\n")
        return verdict, model

    # -- queries -----------------------------------------------------------

    def check(
        self, tail_lines: Sequence[str], *, cancel: Optional[object] = None
    ) -> SolverOutcome:
        """Discharge one goal tail under the recovery policy; never raises."""
        start = time.monotonic()
        attempts = 0

        def outcome(status: str, detail: str = "", model=()) -> SolverOutcome:
            return SolverOutcome(
                status,
                detail,
                model=model,
                elapsed_s=time.monotonic() - start,
                attempts=attempts,
            )

        while True:
            attempts += 1
            try:
                verdict, model = self._query(tail_lines, cancel)
                return outcome(verdict, model=model)
            except FileNotFoundError as exc:
                return outcome("error", f"solver binary not found: {exc}")
            except _SessionCancelled:
                return outcome("cancelled", "race already decided")
            except SessionBroken as broken:
                if broken.kind == "wedge":
                    return outcome("timeout", f"killed after {self.timeout_s:.1f}s")
                if broken.kind == "malformed":
                    return outcome(
                        "error", f"malformed solver output: {broken.detail!r}"
                    )
                detail = broken.detail
            if attempts > SOLVER_RETRIES:
                return outcome("error", f"{detail} (after {attempts} attempt(s))")
            # A decided race must not idle in backoff against a crashing
            # solver: consult the cancellation hook before every retry.
            if cancel is not None and cancel():
                return outcome(
                    "cancelled", "race already decided (during retry backoff)"
                )
            time.sleep(RETRY_BACKOFF_S * 2 ** (attempts - 1))


class SmtLibBackend:
    """Discharge obligations through an external SMT solver, driven by one
    :class:`SolverSession` per backend (pool workers each own theirs)."""

    name = "smtlib"

    def __init__(self, spec, config: ProverConfig) -> None:
        from repro.prover.backends.base import BackendSpec

        assert isinstance(spec, BackendSpec) and spec.solver_cmd
        self.spec = spec
        self.config = config
        self._session: Optional[SolverSession] = None
        self._prelude = None

    @property
    def session(self) -> SolverSession:
        """The solver driver; the prelude is rendered on first use."""
        if self._session is None:
            from repro.verify.encode import CONSTRUCTORS, all_axioms
            from repro.verify.smtlib import emit_prelude

            self._prelude = emit_prelude(all_axioms(), sorted(CONSTRUCTORS))
            queries = self.spec.max_session_queries
            self._session = SolverSession(
                session_argv(self.spec.solver_cmd, incremental=queries != 1),
                self._prelude.text,
                timeout_s=self.spec.solver_timeout_s,
                max_queries=queries,
            )
        return self._session

    def identity(self) -> str:
        version = solver_version(self.spec.solver_cmd)
        cmd = " ".join(self.spec.solver_cmd)
        return f"smtlib;cmd={cmd};version={version}"

    # ------------------------------------------------------------------

    def run_cases(
        self, obligation, cancel: Optional[object] = None
    ) -> Tuple[bool, bool, List[str]]:
        """(proved, conclusive, context) over the obligation's kind cases.

        Proved only when *every* case comes back ``unsat``; the first
        non-``unsat`` case ends the analysis, conclusively for ``sat``
        (countermodel) and inconclusively otherwise.  An obligation with
        *zero* cases is an error outcome, never a vacuous proof."""
        from repro.verify.smtlib import emit_goal_tail

        cases = obligation.cases()
        if not cases:
            return False, False, [
                f"<obligation {obligation.name} produced no proof cases; "
                f"refusing a vacuous proof>"
            ]
        session = self.session
        for case_name, goal in cases:
            if cancel is not None and cancel():
                return False, False, [f"<cancelled before case {case_name}>"]
            tail = emit_goal_tail(
                self._prelude, case_name, goal, seeds=obligation.seeds
            )
            outcome = session.check(tail.lines, cancel=cancel)
            if outcome.status == "unsat":
                continue
            if outcome.status == "sat":
                context = [
                    f"in case {case_name}: external solver reported a "
                    f"countermodel ({outcome.elapsed_s:.2f}s)"
                ]
                context.extend(f"  {line}" for line in outcome.model)
                return False, True, context
            context = [
                f"in case {case_name}: external solver answered "
                f"{outcome.status}"
                + (f" ({outcome.detail})" if outcome.detail else "")
            ]
            return False, False, context
        return True, True, []

    def discharge(self, owner, obligation, cancel=None):
        from repro.verify.checker import ObligationResult

        start = time.monotonic()
        proved, _conclusive, context = self.run_cases(obligation, cancel)
        return ObligationResult(
            obligation.name,
            proved,
            time.monotonic() - start,
            context,
            backend=self.identity(),
        )

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
