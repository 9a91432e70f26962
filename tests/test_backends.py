"""Prover backends (repro.prover.backends, repro.verify.smtlib).

The contract under test, per docs/BACKENDS.md:

* SMT-LIB2 emission produces well-formed ``(set-logic UF)`` scripts whose
  ``unsat`` answers are sound to trust;
* the solver driver's recovery policy is robust — missing binaries,
  crashes mid-stream, malformed output, hung solvers, and retry exhaustion
  all produce structured outcomes, never exceptions or hangs;
* the portfolio merge is a pure function of the two backends' answers
  (byte-identical canonical reports across runs);
* backend resolution degrades gracefully to internal when no solver
  exists, with a single warning;
* the proof cache replays internal proofs for any backend but scopes
  external verdicts to the producing solver identity.

Everything here runs with *scripted fake solvers* (small Python programs
standing in for z3 that speak the stdin contract), so no SMT solver needs
to be installed; the one cross-check against a real solver is skipped
when none is available.
"""

import sys
import time

import pytest

from repro.cobalt.labels import standard_registry
from repro.prover import ProverConfig
from repro.prover.backends import (
    BackendSpec,
    InternalBackend,
    PortfolioBackend,
    SmtLibBackend,
    SolverSession,
    discover_solver,
    parse_solver_output,
    resolve_backend,
    worker_spec,
)
from repro.verify.cache import CachedVerdict
from repro.verify.obligations import ObligationBuilder
from repro.verify.smtlib import emit_obligation
from repro.opts import const_fold, const_prop
from repro.opts.buggy import copy_prop_no_target_check

FAST = ProverConfig(timeout_s=60.0)


def _obligations(pattern):
    return ObligationBuilder(standard_registry()).forward_obligations(pattern)


#: A scripted solver speaking the stdin contract: ``%(hook)s`` runs on every
#: command line, ``%(check_sat)s`` answers ``(check-sat)``, ``%(get_model)s``
#: answers ``(get-model)``, fences are echoed back and ``(exit)`` ends it.
_FAKE = """\
import sys, os, time
sys.stdout.reconfigure(line_buffering=True)

def check_sat():
%(check_sat)s

def get_model():
%(get_model)s

for raw in sys.stdin:
    line = raw.strip()
%(hook)s
    if line.startswith("(check-sat"):
        check_sat()
    elif line.startswith("(get-model"):
        get_model()
    elif line.startswith("(echo"):
        print(line.split('"')[1])
    elif line.startswith("(exit"):
        break
"""


def _indent(body: str) -> str:
    return "\n".join("    " + line for line in body.splitlines())


@pytest.fixture()
def fake_solver(tmp_path):
    """A factory for scripted stand-in solvers: returns an argv tuple."""

    counter = [0]

    def make(check_sat: str, get_model: str = "pass", hook: str = "pass"):
        counter[0] += 1
        script = tmp_path / f"solver{counter[0]}.py"
        script.write_text(
            _FAKE
            % {
                "check_sat": _indent(check_sat),
                "get_model": _indent(get_model),
                "hook": _indent(hook),
            }
        )
        return (sys.executable, str(script))

    return make


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------


class TestParseSolverOutput:
    def test_unsat(self):
        assert parse_solver_output("unsat\n") == ("unsat", ())

    def test_sat_with_model(self):
        verdict, model = parse_solver_output("sat\n(model\n  (f 1)\n)\n")
        assert verdict == "sat"
        assert "(model" in model[0]

    def test_warnings_before_verdict_ignored(self):
        verdict, _ = parse_solver_output('(warning "x")\nunsat\n')
        assert verdict == "unsat"

    def test_error_lines_not_model(self):
        verdict, model = parse_solver_output('sat\n(error "no model")\n')
        assert verdict == "sat"
        assert model == ()

    def test_garbage_has_no_verdict(self):
        assert parse_solver_output("hello world\n")[0] is None

    def test_unsatisfied_is_not_unsat(self):
        # token lines only: a prefix match would misread solver chatter
        assert parse_solver_output("unsatisfied\n")[0] is None

    def test_trailing_chatter_after_unsat_is_not_a_model(self):
        # Model lines exist only after ``sat``; statistics or ``(error "no
        # model")`` spam after unsat/unknown must never be captured.
        verdict, model = parse_solver_output(
            "unsat\n(:rlimit-count 1234)\n(objectives)\n"
        )
        assert verdict == "unsat"
        assert model == ()

    def test_trailing_chatter_after_unknown_is_not_a_model(self):
        verdict, model = parse_solver_output(
            "unknown\n(:reason-unknown incomplete)\n"
        )
        assert verdict == "unknown"
        assert model == ()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _suite_obligations():
    """Every obligation the shipped suite generates, in checking order,
    built without proving anything (each one is reported proved, so every
    analysis registers its label for the optimizations that use it)."""
    from repro.opts import ALL_ANALYSES, ALL_OPTIMIZATIONS
    from repro.verify import SoundnessChecker
    from repro.verify.checker import ObligationResult

    captured = []

    class Recording(SoundnessChecker):
        def _dispatch(self, name, obligations):
            captured.extend(obligations)
            return [ObligationResult(ob.name, True, 0.0, []) for ob in obligations]

    checker = Recording()
    for analysis in ALL_ANALYSES:
        checker.check_analysis(analysis)
    for opt in ALL_OPTIMIZATIONS:
        checker.check_optimization(opt)
    return captured


def _check_script(text):
    """One one-query script: balanced, every symbol declared once, and
    exactly one negated goal, asserted last before ``(check-sat)``."""
    assert text.count("(") == text.count(")")
    assert text.startswith("; repro:") and "(set-logic UF)" in text
    lines = text.splitlines()
    decls = [l.split()[1] for l in lines if l.startswith("(declare-fun")]
    assert len(decls) == len(set(decls)), "symbol declared twice"
    assert lines.count("; negated goal") == 1
    assert lines[-3] == "; negated goal"
    assert lines[-2].startswith("(assert (not ")
    assert lines[-1] == "(check-sat)"


class TestEmission:
    def test_scripts_well_formed(self):
        obligations = _obligations(const_prop.pattern)
        scripts = emit_obligation(obligations[0])
        assert scripts, "kind split must produce at least one script"
        for _name, text in scripts:
            _check_script(text)

    def test_one_script_per_statement_kind(self):
        from repro.verify import encode as E

        obligations = _obligations(const_prop.pattern)
        with_split = [ob for ob in obligations if ob.split_term is not None]
        assert with_split, "F obligations case-split on the statement kind"
        scripts = emit_obligation(with_split[0])
        assert len(scripts) == len(E.STMT_KINDS)
        assert [name for name, _ in scripts] == [
            name for name, _ in with_split[0].cases()
        ]

    def test_declarations_unique(self):
        for _name, text in emit_obligation(_obligations(const_prop.pattern)[0]):
            decls = [
                line.split()[1]
                for line in text.splitlines()
                if line.startswith("(declare-fun")
            ]
            assert len(decls) == len(set(decls)), "duplicate declare-fun"

    def test_whole_suite_scripts_well_formed(self):
        from repro.verify.encode import CONSTRUCTORS, all_axioms
        from repro.verify.smtlib import emit_prelude

        prelude = emit_prelude(all_axioms(), sorted(CONSTRUCTORS))
        obligations = _suite_obligations()
        assert len(obligations) > 50
        cases = 0
        for ob in obligations:
            for _name, text in emit_obligation(ob, prelude):
                _check_script(text)
                cases += 1
        assert cases > len(obligations)

    def test_real_solver_accepts_and_agrees(self):
        # Cross-check against a real SMT solver when one is installed: every
        # obligation of a sound optimization the internal prover discharges
        # must come back unsat (the emission never weakens soundly-provable
        # goals into sat).
        cmd = discover_solver()
        if cmd is None:
            pytest.skip("no SMT solver installed")
        spec = BackendSpec(name="smtlib", solver_cmd=cmd, solver_timeout_s=60.0)
        backend = SmtLibBackend(spec, FAST)
        for ob in _obligations(const_fold.pattern):
            result = backend.discharge("constFold", ob)
            assert result.proved, (ob.name, result.context)


# ---------------------------------------------------------------------------
# The solver driver's recovery policy
# ---------------------------------------------------------------------------


def _driver(cmd, **kwargs):
    """The one solver driver, with a tiny prelude and one-query processes."""
    return SolverSession(cmd, "(set-logic UF)\n", **kwargs)


def _query(driver, **kwargs):
    try:
        return driver.check(["(assert true)"], **kwargs)
    finally:
        driver.close()


@pytest.fixture()
def no_backoff(monkeypatch):
    import repro.prover.backends.smtlib as smtlib_backend

    monkeypatch.setattr(smtlib_backend, "RETRY_BACKOFF_S", 0.0)


class TestSolverRunner:
    """The recovery policy of the driver that runs every solver query
    (docs/BACKENDS.md, "Solver processes")."""

    def test_missing_binary_is_immediate_error(self):
        outcome = _query(_driver(("/nonexistent/solver-xyz",)))
        assert outcome.status == "error"
        assert "not found" in outcome.detail
        assert outcome.attempts == 1, "a missing binary must not be retried"

    def test_timeout_kills_the_solver(self, fake_solver):
        driver = _driver(fake_solver("time.sleep(60)"), timeout_s=0.3)
        start = time.monotonic()
        outcome = driver.check(["(assert true)"])
        assert outcome.status == "timeout"
        assert "killed" in outcome.detail
        assert outcome.attempts == 1, "timeouts must not be retried"
        assert not driver.alive, "a wedged solver must be killed"
        assert time.monotonic() - start < 10.0

    def test_malformed_output_not_retried(self, fake_solver, no_backoff):
        driver = _driver(fake_solver("print('certainly!')"))
        outcome = _query(driver)
        assert outcome.status == "error"
        assert "malformed" in outcome.detail
        assert outcome.attempts == 1, "deterministic garbage must not be retried"
        assert driver.spawns == 1

    def test_malformed_output_at_clean_exit_not_retried(
        self, fake_solver, no_backoff
    ):
        # No fence, a clean exit and output without a verdict token: the
        # same deterministic garbage, reported the same way.
        driver = _driver(fake_solver("print('certainly!')\nsys.exit(0)"))
        outcome = _query(driver)
        assert outcome.status == "error"
        assert "malformed" in outcome.detail
        assert outcome.attempts == 1

    def test_crash_mid_stream_retries_until_exhausted(
        self, fake_solver, no_backoff
    ):
        driver = _driver(
            fake_solver("sys.stdout.write('(partial')\nsys.stdout.flush()\nsys.exit(3)")
        )
        outcome = _query(driver)
        assert outcome.status == "error"
        assert outcome.attempts == 3  # 1 try + 2 retries
        assert "attempt" in outcome.detail
        assert driver.spawns == 3, "each retry respawns and replays the prelude"

    def test_transient_crash_recovers_on_retry(
        self, fake_solver, tmp_path, no_backoff
    ):
        marker = tmp_path / "crashed-once"
        cmd = fake_solver(
            f"m = {str(marker)!r}\n"
            "if not os.path.exists(m):\n"
            "    open(m, 'w').close()\n"
            "    sys.exit(1)\n"
            "print('unsat')"
        )
        outcome = _query(_driver(cmd))
        assert outcome.status == "unsat"
        assert outcome.attempts == 2

    def test_cancellation_stops_promptly(self, fake_solver):
        driver = _driver(fake_solver("time.sleep(60)"), timeout_s=30.0)
        start = time.monotonic()
        outcome = _query(driver, cancel=lambda: True)
        assert outcome.status == "cancelled"
        assert time.monotonic() - start < 5.0

    def test_cancel_consulted_before_retry_backoff(self, tmp_path, monkeypatch):
        # A directory as the solver command makes every spawn fail with
        # EACCES — the one failure mode whose retry loop never reaches the
        # output reader, so the *backoff path itself* must consult the
        # cancellation hook.  A decided race must not sit through the
        # whole backoff schedule against an unspawnable solver.
        import repro.prover.backends.smtlib as smtlib_backend

        monkeypatch.setattr(smtlib_backend, "RETRY_BACKOFF_S", 5.0)
        start = time.monotonic()
        outcome = _query(_driver((str(tmp_path),)), cancel=lambda: True)
        assert outcome.status == "cancelled"
        assert outcome.attempts == 1, "cancelled before the first retry"
        assert time.monotonic() - start < 4.0, "no backoff was slept"

    def test_unsat_with_trailing_output_has_no_model(self, fake_solver):
        # end-to-end twin of the parser test: a solver that prints
        # statistics after its verdict still yields an empty model
        cmd = fake_solver("print('unsat')\nprint('(:memory 12.34)')")
        outcome = _query(_driver(cmd))
        assert outcome.status == "unsat"
        assert outcome.model == ()

    def test_one_query_process_gets_no_push_or_pop(self, fake_solver, tmp_path):
        # The default process serves one query: it receives the prelude,
        # the goal tail and (check-sat) — no push/pop, so no solver is
        # switched into incremental mode — and is recycled afterwards.
        log = tmp_path / "wire.log"
        cmd = fake_solver(
            "print('unsat')", hook=f"open({str(log)!r}, 'a').write(line + chr(10))"
        )
        driver = _driver(cmd)
        try:
            for _ in range(3):
                assert driver.check(["(assert true)"]).status == "unsat"
        finally:
            driver.close()
        lines = log.read_text().splitlines()
        assert "(push 1)" not in lines and "(pop 1)" not in lines
        assert lines.count("(set-logic UF)") == 3, "one prelude per process"
        assert lines.count("(check-sat)") == 3
        assert driver.spawns == 3 and driver.queries == 3


# ---------------------------------------------------------------------------
# The smtlib backend
# ---------------------------------------------------------------------------


class TestSmtLibBackend:
    def _backend(self, cmd, timeout_s=30.0):
        spec = BackendSpec(
            name="smtlib", solver_cmd=cmd, solver_timeout_s=timeout_s
        )
        return SmtLibBackend(spec, FAST)

    def test_all_unsat_proves(self, fake_solver):
        backend = self._backend(fake_solver("print('unsat')\n"))
        ob = _obligations(const_fold.pattern)[0]
        result = backend.discharge("constFold", ob)
        assert result.proved
        assert result.backend.startswith("smtlib;")

    def test_sat_reports_countermodel(self, fake_solver):
        backend = self._backend(
            fake_solver("print('sat')", get_model="print('(model (x 1))')")
        )
        ob = _obligations(const_fold.pattern)[0]
        result = backend.discharge("constFold", ob)
        assert not result.proved
        assert any("countermodel" in line for line in result.context)
        assert any("(model (x 1))" in line for line in result.context)

    def test_unknown_is_inconclusive(self, fake_solver):
        backend = self._backend(fake_solver("print('unknown')\n"))
        ob = _obligations(const_fold.pattern)[0]
        proved, conclusive, context = backend.run_cases(ob)
        assert not proved and not conclusive
        assert any("unknown" in line for line in context)

    def test_zero_cases_is_an_error_not_a_vacuous_proof(
        self, fake_solver, monkeypatch
    ):
        # An obligation whose case analysis is empty must never be
        # "proved" by an all-of-nothing loop — emptying the statement-kind
        # table turns every split obligation into exactly that trap.
        from repro.verify import encode as E

        monkeypatch.setattr(E, "STMT_KINDS", ())
        backend = self._backend(fake_solver("print('unsat')\n"))
        ob = next(
            o for o in _obligations(const_prop.pattern)
            if o.split_term is not None
        )
        proved, conclusive, context = backend.run_cases(ob)
        assert not proved and not conclusive
        assert any("no proof cases" in line for line in context)

    def test_zero_cases_internal_discharge_mirrors(self, monkeypatch):
        # Same contract on the internal path (shared by pool workers).
        from repro.verify import encode as E
        from repro.verify.checker import discharge_obligation
        from repro.prover.backends import build_internal_prover

        ob = next(
            o for o in _obligations(const_prop.pattern)
            if o.split_term is not None
        )
        monkeypatch.setattr(E, "STMT_KINDS", ())
        result = discharge_obligation(build_internal_prover(FAST), "constProp", ob, FAST)
        assert not result.proved
        assert any("no proof cases" in line for line in result.context)


# ---------------------------------------------------------------------------
# Version probing
# ---------------------------------------------------------------------------


class TestSolverVersion:
    def test_transient_probe_failure_is_not_cached(self, tmp_path):
        # The probe fails once (machine blip), then answers.  Caching the
        # failure would brand the solver "unknown" for the whole process —
        # and silently demote every cached proof it produces to
        # config-scoped replay.
        from repro.prover.backends.smtlib import solver_version

        counter = tmp_path / "probes"
        script = tmp_path / "solver"
        script.write_text(
            f"#!{sys.executable}\n"
            "import os, sys\n"
            f"c = {str(counter)!r}\n"
            "n = int(open(c).read()) if os.path.exists(c) else 0\n"
            "open(c, 'w').write(str(n + 1))\n"
            # one solver_version call probes two argv shapes: fail both
            "if n < 2:\n"
            "    sys.exit(1)\n"
            "print('fakesolver 1.0')\n"
        )
        script.chmod(0o755)
        cmd = (str(script),)
        assert solver_version(cmd) == "unknown"
        assert solver_version(cmd) == "fakesolver 1.0", (
            "a failed probe must not poison the version cache"
        )
        # …and the success *is* cached (later probes never run)
        probes = int(counter.read_text())
        assert solver_version(cmd) == "fakesolver 1.0"
        assert int(counter.read_text()) == probes


# ---------------------------------------------------------------------------
# Resolution and degradation
# ---------------------------------------------------------------------------


class TestResolveBackend:
    def test_internal_by_default(self):
        backend = resolve_backend(BackendSpec(), FAST)
        assert isinstance(backend, InternalBackend)
        assert backend.identity().startswith("internal;")

    def test_missing_solver_degrades_with_warning(self, monkeypatch, capsys):
        import repro.prover.backends.base as base

        monkeypatch.setattr(base, "discover_solver", lambda: None)
        monkeypatch.setattr(base, "_WARNED", set())
        backend = resolve_backend(BackendSpec(name="smtlib"), FAST)
        assert isinstance(backend, InternalBackend)
        err = capsys.readouterr().err
        assert "no SMT solver found" in err
        # …and only once per process:
        resolve_backend(BackendSpec(name="portfolio"), FAST)
        resolve_backend(BackendSpec(name="smtlib"), FAST)
        again = capsys.readouterr().err
        assert again.count("no SMT solver found") <= 1

    def test_portfolio_resolves_both_legs(self, fake_solver):
        cmd = fake_solver("print('unsat')\n")
        spec = BackendSpec(name="portfolio", solver_cmd=cmd)
        backend = resolve_backend(spec, FAST)
        assert isinstance(backend, PortfolioBackend)
        assert "portfolio(" in backend.identity()
        assert "smtlib;" in backend.identity()

    def test_worker_spec_carries_resolved_command(self, fake_solver):
        cmd = fake_solver("print('unsat')\n")
        backend = resolve_backend(
            BackendSpec(name="portfolio", solver_cmd=cmd), FAST
        )
        spec = worker_spec(backend)
        assert spec.name == "portfolio"
        assert spec.solver_cmd == tuple(cmd)
        # worker specs must survive pickling into pool workers
        import pickle

        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError):
            BackendSpec(name="simplify")


# ---------------------------------------------------------------------------
# Portfolio semantics
# ---------------------------------------------------------------------------


class TestPortfolio:
    def _portfolio(self, cmd, timeout_s=30.0):
        spec = BackendSpec(
            name="portfolio", solver_cmd=cmd, solver_timeout_s=timeout_s
        )
        return resolve_backend(spec, FAST)

    def test_internal_proof_wins_over_slow_solver(self, fake_solver):
        # The external racer never answers inside its budget; the internal
        # prover's verdict must come back without waiting for it.
        backend = self._portfolio(fake_solver("time.sleep(60)\n"), timeout_s=2.0)
        ob = _obligations(const_fold.pattern)[0]
        start = time.monotonic()
        result = backend.discharge("constFold", ob)
        assert result.proved
        assert result.backend.startswith("internal;")
        assert time.monotonic() - start < 30.0

    def test_external_sat_never_flips_an_internal_proof(self, fake_solver):
        # The emission is an abstraction: external ``sat`` is evidence, not
        # a disproof, and must lose to an internal proof deterministically.
        backend = self._portfolio(fake_solver("print('sat')\n"))
        ob = _obligations(const_fold.pattern)[0]
        result = backend.discharge("constFold", ob)
        assert result.proved

    def test_external_proof_rescues_internal_failure(self, fake_solver):
        # The buggy pattern is internally unprovable; a (scripted) external
        # proof must carry the obligation, attributed to the solver.
        backend = self._portfolio(fake_solver("print('unsat')\n"))
        ob = _obligations(copy_prop_no_target_check.pattern)[1]
        result = backend.discharge("copyProp", ob)
        assert result.proved
        assert result.backend.startswith("smtlib;")

    def test_external_countermodel_reported_when_internal_fails(
        self, fake_solver
    ):
        backend = self._portfolio(
            fake_solver("print('sat')", get_model="print('(model)')")
        )
        ob = _obligations(copy_prop_no_target_check.pattern)[1]
        result = backend.discharge("copyProp", ob)
        assert not result.proved
        assert any("countermodel" in line for line in result.context)

    def test_budget_covers_every_case_of_a_split_obligation(self, fake_solver):
        # A kind-split obligation runs one solver query per statement
        # kind.  The post-internal wait must budget per *case* — waiting a
        # single solver_timeout_s would cut off an external racer that is
        # steadily proving a seven-case obligation at 0.4s/case.
        from repro.verify.checker import ObligationResult

        class _FailsFast:
            def identity(self):
                return "internal;stub"

            def discharge(self, owner, obligation, cancel=None):
                return ObligationResult(obligation.name, False, 0.0, ["<stub>"])

            def close(self):
                pass

        external = SmtLibBackend(
            BackendSpec(
                name="smtlib",
                solver_cmd=fake_solver("time.sleep(0.4)\nprint('unsat')\n"),
                solver_timeout_s=0.9,
            ),
            FAST,
        )
        backend = PortfolioBackend(_FailsFast(), external)
        ob = next(
            o for o in _obligations(const_prop.pattern)
            if o.split_term is not None
        )
        result = backend.discharge("constProp", ob)
        assert result.proved, (
            "the external racer finishes every case within its per-case "
            "budget and must carry the obligation"
        )
        assert result.backend.startswith("smtlib;")

    def test_merge_is_deterministic_across_runs(self, fake_solver):
        from repro.api import ProverOptions, VerifyOptions
        from repro.verify import SoundnessChecker

        cmd = fake_solver("print('unsat')\n")
        options = VerifyOptions(
            backend="portfolio",
            solver_cmd=cmd,
            prover=ProverOptions(timeout_s=60.0),
        )

        def canonical():
            checker = SoundnessChecker(options=options)
            return checker.check_optimization(const_fold).canonical()

        first = canonical()
        assert first == canonical() == canonical()


# ---------------------------------------------------------------------------
# Checker integration and cache keying
# ---------------------------------------------------------------------------


class TestCheckerIntegration:
    def test_smtlib_checker_end_to_end(self, fake_solver):
        from repro.api import ProverOptions, VerifyOptions
        from repro.verify import SoundnessChecker

        options = VerifyOptions(
            backend="smtlib",
            solver_cmd=fake_solver("print('unsat')\n"),
            prover=ProverOptions(timeout_s=60.0),
        )
        checker = SoundnessChecker(options=options)
        report = checker.check_optimization(const_fold)
        assert report.sound
        assert all(r.backend.startswith("smtlib;") for r in report.results)

    def test_parallel_smtlib_matches_serial(self, fake_solver):
        from repro.api import ProverOptions, VerifyOptions
        from repro.verify import SoundnessChecker

        cmd = fake_solver("print('unsat')\n")
        base = dict(
            backend="smtlib",
            solver_cmd=cmd,
            prover=ProverOptions(timeout_s=60.0),
        )
        serial = SoundnessChecker(options=VerifyOptions(**base))
        parallel = SoundnessChecker(options=VerifyOptions(jobs=2, **base))
        left = serial.check_optimization(const_prop).canonical()
        right = parallel.check_optimization(const_prop).canonical()
        assert left == right

    def test_internal_proofs_replay_for_any_backend(self):
        proof = CachedVerdict(
            proved=True, elapsed_s=0.1, config="fp", backend="internal;mode=incremental"
        )
        assert proof.replayable_for("other-fp", "smtlib;cmd=z3;version=4")
        assert proof.replayable_for("fp", "portfolio(internal|smtlib)")

    def test_external_proofs_scoped_to_solver_identity(self):
        proof = CachedVerdict(
            proved=True, elapsed_s=0.1, config="fp", backend="smtlib;cmd=z3;version=4"
        )
        assert proof.replayable_for("fp", "smtlib;cmd=z3;version=4")
        # a portfolio embedding the same solver may trust the proof…
        assert proof.replayable_for(
            "fp", "portfolio(internal;mode=x|smtlib;cmd=z3;version=4)"
        )
        # …a different solver version may not.
        assert not proof.replayable_for("fp", "smtlib;cmd=z3;version=5")

    def test_unknown_version_external_proofs_are_config_scoped(self):
        # version=unknown means the build is unidentified: a solver swap
        # behind the same command would replay stale proofs if these were
        # trusted config-independently like identified builds.
        proof = CachedVerdict(
            proved=True,
            elapsed_s=0.1,
            config="fp",
            backend="smtlib;cmd=mysolver;version=unknown",
        )
        assert proof.replayable_for("fp", "smtlib;cmd=mysolver;version=unknown")
        assert not proof.replayable_for(
            "fp2", "smtlib;cmd=mysolver;version=unknown"
        )
        # a different command is rejected outright, as ever
        assert not proof.replayable_for(
            "fp", "smtlib;cmd=other;version=unknown"
        )

    def test_failures_scoped_to_config_and_backend(self):
        failure = CachedVerdict(
            proved=False, elapsed_s=0.1, config="fp", backend="internal;mode=x"
        )
        assert failure.replayable_for("fp", "internal;mode=x")
        assert not failure.replayable_for("fp2", "internal;mode=x")
        assert not failure.replayable_for("fp", "smtlib;cmd=z3;version=4")

    def test_cache_warm_across_backend_switch(self, tmp_path, fake_solver):
        # An internal run populates the cache; a later smtlib run replays
        # every proof without invoking its solver even once.
        from repro.api import ProverOptions, VerifyOptions
        from repro.verify import SoundnessChecker

        cache = str(tmp_path / "cache")
        prover = ProverOptions(timeout_s=60.0)
        internal = SoundnessChecker(
            options=VerifyOptions(cache_dir=cache, prover=prover)
        )
        assert internal.check_optimization(const_fold).sound

        cmd = fake_solver("sys.exit(7)\n")  # would fail loudly if invoked
        external = SoundnessChecker(
            options=VerifyOptions(
                backend="smtlib", solver_cmd=cmd, cache_dir=cache, prover=prover
            )
        )
        report = external.check_optimization(const_fold)
        assert report.sound
        assert all(r.cached for r in report.results)
