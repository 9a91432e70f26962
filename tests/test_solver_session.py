"""Solver processes that serve several queries (docs/BACKENDS.md).

The contract under test:

* :func:`session_argv` maps known solvers onto their stdin/incremental
  flags and leaves unknown commands (the z3shim, scripted fakes, custom
  wrappers) untouched;
* :class:`SolverSession` speaks the push/pop protocol when a process
  serves several queries — the shared prelude is asserted exactly once per
  solver *process*, every query runs inside its own ``(push 1)``/
  ``(pop 1)`` scope, and ``max_queries`` recycles the process (replaying
  the prelude) on schedule;
* anomalies follow the one recovery policy: a crash respawns-and-replays
  (bounded), garbage is ``malformed solver output``, a wedge kills the
  process and reports ``timeout``, a decided race cancels promptly;
* the process discipline is *invisible* in results: backend identity,
  canonical reports, and proof-cache keys are byte-identical for
  ``max_session_queries`` 0, 1 and 2, and process-pool workers each own
  (and tear down) their solver process.

Everything runs with scripted fake solvers speaking the stdin protocol,
so no SMT solver needs to be installed.
"""

import sys
import time

import pytest

from repro.cobalt.labels import standard_registry
from repro.prover import ProverConfig
from repro.prover.backends import (
    BackendSpec,
    SmtLibBackend,
    SolverSession,
    session_argv,
)
from repro.verify.obligations import ObligationBuilder
from repro.opts import const_fold, const_prop

FAST = ProverConfig(timeout_s=60.0)

#: A scripted solver speaking the stdin protocol (echo fences replayed,
#: one verdict per ``(check-sat)``).  ``%(hook)s`` runs per stdin line,
#: ``%(verdict)s`` answers ``(check-sat)``.
_FAKE = """\
def handle(line):
%(hook)s
    if line.startswith("(check-sat"):
%(verdict)s
    elif line.startswith("(echo"):
        print(line.split('"')[1], flush=True)
    elif line.startswith("(exit"):
        raise SystemExit(0)

for raw in sys.stdin:
    handle(raw.strip())
"""


def _indent(body: str, by: str) -> str:
    return "\n".join(by + line for line in body.splitlines())


@pytest.fixture()
def fake_session_solver(tmp_path):
    """Factory for scripted stdin-protocol solvers: returns an argv tuple."""

    counter = [0]

    def make(verdict: str = "print('unsat', flush=True)", *, hook: str = "pass"):
        counter[0] += 1
        script = tmp_path / f"session{counter[0]}.py"
        script.write_text(
            "import sys, os, time\n"
            + _FAKE
            % {
                "hook": _indent(hook, "    "),
                "verdict": _indent(verdict, "        "),
            }
        )
        return (sys.executable, str(script))

    return make


@pytest.fixture()
def no_backoff(monkeypatch):
    import repro.prover.backends.smtlib as smtlib_backend

    monkeypatch.setattr(smtlib_backend, "RETRY_BACKOFF_S", 0.0)


def _obligations(pattern):
    return ObligationBuilder(standard_registry()).forward_obligations(pattern)


def _backend(cmd, *, timeout_s=30.0, max_session_queries=0):
    spec = BackendSpec(
        name="smtlib",
        solver_cmd=cmd,
        solver_timeout_s=timeout_s,
        max_session_queries=max_session_queries,
    )
    return SmtLibBackend(spec, FAST)


# ---------------------------------------------------------------------------
# Stdin argv mapping
# ---------------------------------------------------------------------------


class TestSessionArgv:
    def test_z3_gets_stdin_flag(self):
        assert session_argv(("/usr/bin/z3",)) == ("/usr/bin/z3", "-in")
        assert session_argv(("z3",), incremental=False) == ("z3", "-in")

    def test_cvc5_gets_incremental_flag(self):
        assert session_argv(("cvc5", "--lang=smt2")) == (
            "cvc5",
            "--lang=smt2",
            "--incremental",
        )
        # a one-query process is not switched into incremental mode
        assert session_argv(("cvc5",), incremental=False) == ("cvc5",)

    def test_bundled_shim_runs_as_given(self):
        cmd = (sys.executable, "-m", "repro.prover.backends.z3shim")
        assert session_argv(cmd) == cmd

    def test_unknown_command_unchanged(self):
        cmd = (sys.executable, "/tmp/fake-solver.py")
        assert session_argv(cmd) == cmd


# ---------------------------------------------------------------------------
# The session protocol, driven directly
# ---------------------------------------------------------------------------


class TestSolverSession:
    def _logged_session(self, fake_session_solver, tmp_path, **kwargs):
        log = tmp_path / "wire.log"
        cmd = fake_session_solver(
            hook=f"open({str(log)!r}, 'a').write(line + chr(10))"
        )
        session = SolverSession(cmd, "(set-logic UF)\n(assert true)\n", **kwargs)
        return session, log

    def test_push_pop_discipline(self, fake_session_solver, tmp_path):
        session, log = self._logged_session(
            fake_session_solver, tmp_path, max_queries=0
        )
        try:
            session.start()
            for _ in range(3):
                outcome = session.check(["(assert true)"])
                assert outcome.status == "unsat"
        finally:
            session.close()
        lines = log.read_text().splitlines()
        # the prelude went down the pipe exactly once…
        assert lines.count("(set-logic UF)") == 1
        # …and every query ran inside its own balanced scope
        assert lines.count("(push 1)") == 3
        assert lines.count("(pop 1)") == 3
        first_check = lines.index("(check-sat)")
        assert lines.index("(push 1)") < first_check
        assert session.spawns == 1
        assert session.queries == 3

    def test_max_queries_recycles_the_process(
        self, fake_session_solver, tmp_path
    ):
        session, log = self._logged_session(
            fake_session_solver, tmp_path, max_queries=2
        )
        try:
            session.start()
            for _ in range(5):
                assert session.check(["(assert true)"]).status == "unsat"
        finally:
            session.close()
        # queries 1-2 on process 1, 3-4 on process 2, 5 on process 3 —
        # each fresh process replays the prelude.
        assert session.spawns == 3
        assert log.read_text().splitlines().count("(set-logic UF)") == 3

    def test_sat_collects_the_model(self, fake_session_solver):
        cmd = fake_session_solver(
            "print('sat', flush=True)",
            hook=(
                "if line.startswith('(get-model'):\n"
                "    print('(model (x 1))', flush=True)"
            ),
        )
        session = SolverSession(cmd, "(set-logic UF)\n")
        try:
            outcome = session.check(["(assert true)"])
        finally:
            session.close()
        assert outcome.status == "sat"
        assert "(model (x 1))" in outcome.model

    def test_crash_mid_query_is_session_broken(
        self, fake_session_solver, no_backoff
    ):
        # Every attempt crashes: respawn-and-replay twice, then an error.
        cmd = fake_session_solver("os._exit(3)")
        session = SolverSession(cmd, "(set-logic UF)\n", max_queries=0)
        try:
            outcome = session.check(["(assert true)"])
        finally:
            session.close()
        assert outcome.status == "error"
        assert "code 3" in outcome.detail
        assert outcome.attempts == 3
        assert session.spawns == 3

    def test_wedge_kills_the_process(self, fake_session_solver):
        cmd = fake_session_solver("time.sleep(60)")
        session = SolverSession(cmd, "(set-logic UF)\n", timeout_s=0.3)
        try:
            start = time.monotonic()
            outcome = session.check(["(assert true)"])
            assert outcome.status == "timeout"
            assert time.monotonic() - start < 10.0
            assert not session.alive, "a wedged solver must be killed"
        finally:
            session.close()

    def test_garbage_answer_is_protocol_broken(self, fake_session_solver):
        cmd = fake_session_solver("print('certainly!', flush=True)")
        session = SolverSession(cmd, "(set-logic UF)\n", max_queries=0)
        try:
            outcome = session.check(["(assert true)"])
        finally:
            session.close()
        assert outcome.status == "error"
        assert "malformed solver output" in outcome.detail
        assert outcome.attempts == 1
        assert not session.alive, "a garbling solver is not kept"


# ---------------------------------------------------------------------------
# The backend: one warm process, recovery
# ---------------------------------------------------------------------------


class TestSessionBackend:
    def test_one_spawn_discharges_every_case(self, fake_session_solver):
        backend = _backend(fake_session_solver())
        try:
            obligations = _obligations(const_fold.pattern)
            for ob in obligations:
                result = backend.discharge("constFold", ob)
                assert result.proved, result.context
        finally:
            backend.close()
        assert backend.session.spawns == 1, (
            "a healthy session discharges the whole obligation set "
            "with a single solver process"
        )
        assert backend.session.queries > len(obligations)

    def test_crash_respawns_and_replays(
        self, fake_session_solver, tmp_path
    ):
        # The solver dies on its 3rd query, exactly once; the backend must
        # respawn, replay the prelude, and retry that query in-session.
        marker = tmp_path / "crashed-once"
        cmd = fake_session_solver(
            hook=(
                f"m = {str(marker)!r}\n"
                "if line.startswith('(check-sat'):\n"
                "    n = int(open(m).read()) if os.path.exists(m) else 0\n"
                "    open(m, 'w').write(str(n + 1))\n"
                "    if n + 1 == 3:\n"
                "        os._exit(1)"
            )
        )
        backend = _backend(cmd)
        try:
            for ob in _obligations(const_fold.pattern):
                result = backend.discharge("constFold", ob)
                assert result.proved, result.context
        finally:
            backend.close()
        assert backend.session.spawns == 2, "one crash, one respawn"

    def test_persistent_garbage_degrades_to_spawn_fallback(
        self, fake_session_solver
    ):
        # Answers are never a verdict token: that is malformed solver
        # output, not retried, and the obligation is inconclusive.
        backend = _backend(
            fake_session_solver("print('certainly!', flush=True)")
        )
        try:
            ob = _obligations(const_fold.pattern)[0]
            proved, conclusive, context = backend.run_cases(ob)
        finally:
            backend.close()
        assert not proved and not conclusive
        assert any("malformed solver output" in line for line in context)
        assert backend.session.spawns == 1

    def test_wedge_reports_timeout_like_spawn_mode(self, fake_session_solver):
        cmd = fake_session_solver("time.sleep(60)")
        backend = _backend(cmd, timeout_s=0.3)
        try:
            ob = _obligations(const_fold.pattern)[0]
            proved, conclusive, context = backend.run_cases(ob)
        finally:
            backend.close()
        assert not proved and not conclusive
        assert any("timeout" in line for line in context)

    def test_identity_hides_the_session(self, fake_session_solver):
        # Proof-cache keys must not depend on the process discipline.
        cmd = fake_session_solver()
        one_query = _backend(cmd, max_session_queries=1)
        session = _backend(cmd)
        try:
            assert one_query.identity() == session.identity()
        finally:
            one_query.close()
            session.close()

    def test_close_is_idempotent(self, fake_session_solver):
        backend = _backend(fake_session_solver())
        ob = _obligations(const_fold.pattern)[0]
        assert backend.discharge("constFold", ob).proved
        backend.close()
        backend.close()
        assert not backend.session.alive
        # a post-close discharge transparently starts a fresh process
        assert backend.discharge("constFold", ob).proved
        assert backend.session.spawns == 2
        backend.close()


# ---------------------------------------------------------------------------
# Integration: reports, workers, teardown
# ---------------------------------------------------------------------------


class TestSessionIntegration:
    def _options(self, cmd, **kwargs):
        from repro.api import ProverOptions, VerifyOptions

        return VerifyOptions(
            backend="smtlib",
            solver_cmd=cmd,
            prover=ProverOptions(timeout_s=60.0),
            **kwargs,
        )

    def test_session_report_byte_identical_to_spawn(self, fake_session_solver):
        from repro.verify import SoundnessChecker

        cmd = fake_session_solver()
        reports = {}
        for queries in (0, 1, 2):
            checker = SoundnessChecker(
                options=self._options(cmd, max_session_queries=queries)
            )
            reports[queries] = checker.check_optimization(const_prop).canonical()
            checker.backend.close()
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.slow
    def test_session_suite_byte_identical_to_spawn(self, fake_session_solver):
        from repro.api import verify_suite

        cmd = fake_session_solver()
        canonicals = {}
        for queries in (0, 1, 2):
            report = verify_suite(
                self._options(cmd, max_session_queries=queries),
                analyses=[],
                optimizations=[const_fold, const_prop],
            )
            canonicals[queries] = report.canonical()
        assert canonicals[0] == canonicals[1] == canonicals[2]

    def test_parallel_session_matches_serial(self, fake_session_solver):
        from repro.verify import SoundnessChecker

        cmd = fake_session_solver()
        serial = SoundnessChecker(
            options=self._options(cmd, max_session_queries=0)
        )
        pooled = SoundnessChecker(
            options=self._options(cmd, max_session_queries=0, jobs=2)
        )
        left = serial.check_optimization(const_prop).canonical()
        right = pooled.check_optimization(const_prop).canonical()
        serial.backend.close()
        assert left == right

    def test_cli_max_session_queries_2_recycles_the_process(
        self, fake_session_solver, tmp_path, capsys
    ):
        # Through the CLI: every process serves at most two queries, in
        # push/pop scopes, and the prelude is replayed on each fresh one.
        from repro.cli import main

        log = tmp_path / "wire.log"
        cmd = fake_session_solver(
            hook=f"open({str(log)!r}, 'a').write(line + chr(10))"
        )
        source = tmp_path / "one.cobalt"
        source.write_text(
            "forward optimization cliConstProp {\n"
            "  stmt(Y := C)\n  followed by\n  !mayDef(Y)\n  until\n"
            "  X := Y  =>  X := C\n  with witness\n  eta(Y) == C\n}\n"
        )
        argv = [
            "--backend", "smtlib",
            "--solver-cmd", " ".join(cmd),
            "--max-session-queries", "2",
            "check", str(source),
        ]
        assert main(argv) == 0
        assert "REJECTED" not in capsys.readouterr().out
        lines = log.read_text().splitlines()
        queries = lines.count("(check-sat)")
        assert queries > 2
        assert lines.count("(set-logic UF)") == (queries + 1) // 2
        assert lines.count("(push 1)") == queries

    def test_worker_owns_and_tears_down_its_session(self, fake_session_solver):
        # Drive the pool-worker lifecycle in-process: init builds the
        # backend, a discharge warms its solver process, close releases it
        # (this is what the atexit hook runs on pool teardown).
        import repro.verify.parallel as parallel

        spec = BackendSpec(
            name="smtlib", solver_cmd=fake_session_solver(), max_session_queries=0
        )
        parallel._worker_init(FAST, spec)
        backend = parallel._WORKER_BACKEND
        try:
            assert isinstance(backend, SmtLibBackend)
            ob = _obligations(const_fold.pattern)[0]
            index, result = parallel._worker_discharge(
                (0, "constFold", ob, FAST, spec)
            )
            assert index == 0 and result.proved
            assert backend.session.alive
        finally:
            parallel._worker_close()
        assert parallel._WORKER_BACKEND is None
        assert not backend.session.alive, "teardown must close the process"
