"""The external-solver oracle (tests/oracle_smtlib.py, docs/PROVER.md).

* SMT-LIB2 emission produces well-formed ``(set-logic UF)`` scripts, one
  per statement-kind case, whose ``unsat`` answers are sound to trust;
* solver output parsing takes the first status token and a model only
  after ``sat``;
* the runner maps one solver run's output to a verdict (checked with a
  scripted stand-in for the ``z3`` executable);
* with z3 installed, every suite obligation the internal prover proves is
  also proved by z3.  The reverse case (z3 proves what the internal
  prover does not) is reported, not failed.  Without z3 the cross-check is
  skipped: CI installs the ``z3-solver`` wheel for it.
"""

import os
import stat
import warnings

import pytest

from repro.cobalt.labels import standard_registry
from repro.prover import Prover, ProverConfig
from repro.verify.cache import obligation_key
from repro.verify.checker import discharge_obligation
from repro.verify.encode import CONSTRUCTORS, all_axioms, all_axioms_digest
from repro.verify.obligations import ObligationBuilder
from repro.opts import const_prop
from tests.oracle_smtlib import (
    emit_case,
    emit_obligation,
    parse_solver_output,
    run_case,
    z3_command,
    z3_proves,
)


def _obligations(pattern):
    return ObligationBuilder(standard_registry()).forward_obligations(pattern)


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
            captured.extend((name, ob) for ob in obligations)
            return [ObligationResult(ob.name, True, 0.0, []) for ob in obligations]

    checker = Recording()
    for analysis in ALL_ANALYSES:
        checker.check_analysis(analysis)
    for opt in ALL_OPTIMIZATIONS:
        checker.check_optimization(opt)
    return captured


def _check_script(text):
    """One script: balanced, every symbol declared once, and exactly one
    negated goal, asserted last before ``(check-sat)``."""
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
        axioms, constructors = all_axioms(), sorted(CONSTRUCTORS)
        obligations = _suite_obligations()
        assert len(obligations) > 50
        cases = 0
        for _owner, ob in obligations:
            for name, goal in ob.cases():
                _check_script(emit_case(
                    name, goal, seeds=ob.seeds, axioms=axioms,
                    constructors=constructors,
                ))
                cases += 1
        assert cases > len(obligations)


# ---------------------------------------------------------------------------
# The runner, against a scripted stand-in for the z3 executable
# ---------------------------------------------------------------------------


@pytest.fixture()
def fake_z3(tmp_path, monkeypatch):
    """Put a ``z3`` on PATH that reads the script and prints ``answer``."""

    def install(answer: str) -> None:
        script = tmp_path / "z3"
        script.write_text(
            "#!/bin/sh\ncat > /dev/null\nprintf '%s\\n' " + f"'{answer}'\n"
        )
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")

    return install


class TestRunner:
    def test_unsat_on_every_case_proves(self, fake_z3):
        fake_z3("unsat")
        assert z3_command(5.0)[0] == "z3"
        assert z3_proves(_obligations(const_prop.pattern)[0], timeout_s=5.0)

    def test_any_other_answer_does_not_prove(self, fake_z3):
        ob = _obligations(const_prop.pattern)[0]
        fake_z3("sat")
        assert not z3_proves(ob, timeout_s=5.0)
        fake_z3("(error \"unsupported\")")
        assert run_case(emit_obligation(ob)[0][1], 5.0) == "error"


# ---------------------------------------------------------------------------
# The cross-check: z3 proves what the internal prover proves
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.skipif(z3_command(60.0) is None, reason="z3 is not installed")
def test_z3_proves_every_suite_obligation_the_prover_proves():
    config = ProverConfig(timeout_s=120.0)
    prover = Prover(all_axioms(), constructors=CONSTRUCTORS, config=config)
    digest = all_axioms_digest()
    seen = set()
    missed, extra = [], []
    for owner, ob in _suite_obligations():
        key = obligation_key(ob, digest)
        if key in seen:
            continue
        seen.add(key)
        internal = discharge_obligation(prover, owner, ob, config).proved
        external = z3_proves(ob, timeout_s=60.0)
        if internal and not external:
            missed.append(f"{owner}:{ob.name}")
        elif external and not internal:
            extra.append(f"{owner}:{ob.name}")
    if extra:
        warnings.warn(
            "z3 proves obligations the internal prover does not: "
            + ", ".join(extra)
        )
    assert not missed, f"the internal prover proves, z3 does not: {missed}"
