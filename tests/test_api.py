"""The repro.api façade: the one supported configuration surface.

The contract under test: ``from repro import verify_suite, VerifyOptions``
is the supported programmatic surface — frozen options objects, three
entry points accepting Cobalt source or parsed objects.  The pre-façade
``SoundnessChecker(cache=/jobs=/obligation_timeout_s=)`` kwargs served
one release of ``DeprecationWarning`` and are now *gone*: passing them
is a ``TypeError``, and the tests here pin that removal.
"""

import dataclasses

import pytest

from repro import (
    EngineOptions,
    ProverOptions,
    UnsoundOptimizationError,
    VerifyOptions,
    check_optimization,
    run_optimization,
    verify_suite,
)
from repro.prover import ProverConfig
from repro.verify import SoundnessChecker
from repro.opts import const_fold, const_prop
from repro.opts.buggy import const_prop_wrong_witness

FAST = ProverOptions(timeout_s=60.0)

CONST_PROP_SRC = """
forward optimization apiConstProp {
  stmt(Y := C)
  followed by
  !mayDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}
"""

PROGRAM = """
main(n) {
  decl a;
  decl b;
  a := 2;
  b := a;
  return b;
}
"""


class TestOptions:
    def test_options_are_frozen(self):
        for options in (VerifyOptions(), ProverOptions(), EngineOptions()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                options.backend = "other"  # type: ignore[misc]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            VerifyOptions(backend="simplify")

    def test_solver_cmd_string_is_split(self):
        assert VerifyOptions(solver_cmd="z3 -smt2").solver_cmd == ("z3", "-smt2")
        assert VerifyOptions(solver_cmd=["z3"]).solver_cmd == ("z3",)

    def test_prover_options_round_trip_config(self):
        config = ProverConfig(timeout_s=7.0, max_rounds=3, max_decisions=9)
        options = ProverOptions.from_config(config)
        back = options.to_config()
        assert back.timeout_s == 7.0
        assert back.max_rounds == 3
        assert back.max_decisions == 9
        assert ProverOptions.from_config(back) == options
        # The prover-mode and kernel switches are gone from both types.
        for name in ("mode", "kernel"):
            with pytest.raises(TypeError):
                ProverOptions(**{name: "reference"})
        with pytest.raises(TypeError):
            ProverConfig(mode="reference")
        with pytest.raises(TypeError):
            EngineOptions(mode="reference")

    def test_top_level_imports(self):
        import repro

        assert repro.VerifyOptions is VerifyOptions
        assert repro.verify_suite is verify_suite
        assert "check_optimization" in dir(repro)
        with pytest.raises(AttributeError):
            repro.no_such_symbol


class TestRetiredShims:
    """The PR5 deprecation shims are gone after their one-release grace."""

    @pytest.mark.parametrize("kwargs", [
        {"jobs": 2},
        {"cache": "/tmp/nope"},
        {"obligation_timeout_s": 9.0},
    ])
    def test_removed_kwargs_raise_type_error(self, kwargs):
        with pytest.raises(TypeError):
            SoundnessChecker(**kwargs)

    def test_proof_cache_accepts_only_cache_objects(self, tmp_path):
        from repro.verify import ProofCache

        with pytest.raises(TypeError, match="cache_dir"):
            SoundnessChecker(proof_cache=str(tmp_path))
        shared = ProofCache(None)
        checker = SoundnessChecker(proof_cache=shared)
        assert checker.cache is shared

    def test_config_kwarg_stays_silent(self, recwarn):
        checker = SoundnessChecker(config=ProverConfig(timeout_s=5.0))
        assert checker.config.timeout_s == 5.0
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_options_thread_through(self, tmp_path):
        options = VerifyOptions(
            jobs=3,
            cache_dir=str(tmp_path / "cache"),
            obligation_timeout_s=11.0,
            prover=ProverOptions(timeout_s=13.0),
        )
        checker = SoundnessChecker(options=options)
        assert checker.jobs == 3
        assert checker.cache is not None
        assert checker.obligation_timeout_s == 11.0
        assert checker.config.timeout_s == 13.0

    def test_explicit_config_beats_options_prover(self):
        checker = SoundnessChecker(
            config=ProverConfig(timeout_s=5.0),
            options=VerifyOptions(prover=ProverOptions(timeout_s=50.0)),
        )
        assert checker.config.timeout_s == 5.0


class TestCheckOptimization:
    def test_accepts_cobalt_source(self):
        report = check_optimization(CONST_PROP_SRC, VerifyOptions(prover=FAST))
        assert report.sound
        assert report.name == "apiConstProp"

    def test_accepts_parsed_optimization(self):
        report = check_optimization(const_fold, VerifyOptions(prover=FAST))
        assert report.sound

    def test_rejects_buggy_optimization(self):
        report = check_optimization(
            const_prop_wrong_witness, VerifyOptions(prover=FAST)
        )
        assert not report.sound

    def test_rejects_multi_block_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            check_optimization(CONST_PROP_SRC + CONST_PROP_SRC)

    def test_rejects_non_optimization(self):
        with pytest.raises(TypeError):
            check_optimization(42)


class TestRunOptimization:
    def test_runs_without_verification(self):
        result = run_optimization(const_prop, PROGRAM)
        assert result.report is None
        assert result.rewrites == 1
        assert result.sites["main"] == [3]  # b := a, after the decls

    def test_iterate_option(self):
        result = run_optimization(
            CONST_PROP_SRC, PROGRAM, engine=EngineOptions(iterate=True)
        )
        assert result.rewrites >= 1

    def test_verified_run_attaches_report(self):
        result = run_optimization(
            const_prop, PROGRAM, verify=VerifyOptions(prover=FAST)
        )
        assert result.report is not None and result.report.sound
        assert result.rewrites == 1

    def test_unsound_pass_refuses_to_run(self):
        with pytest.raises(UnsoundOptimizationError) as exc:
            run_optimization(
                const_prop_wrong_witness, PROGRAM, verify=VerifyOptions(prover=FAST)
            )
        assert not exc.value.report.sound

    def test_behaviour_preserved(self):
        from repro.il import parse_program, run_program

        program = parse_program(PROGRAM)
        result = run_optimization(const_prop, program)
        for n in (0, 1, 7):
            assert run_program(result.program, n) == run_program(program, n)


class TestVerifySuite:
    def test_subset_suite(self):
        suite = verify_suite(
            VerifyOptions(prover=FAST),
            analyses=(),
            optimizations=[const_fold, const_prop],
        )
        assert suite.sound
        assert len(suite.reports) == 2
        assert suite.backend.startswith("internal;")
        assert "SOUND" in suite.summary()
        assert suite.canonical().count("SOUND") >= 2

    def test_progress_callback_streams(self):
        seen = []
        verify_suite(
            VerifyOptions(prover=FAST),
            analyses=(),
            optimizations=[const_fold],
            progress=seen.append,
        )
        assert [r.name for r in seen] == ["constFold"]

    def test_empty_suite_is_not_sound(self):
        suite = verify_suite(
            VerifyOptions(prover=FAST), analyses=(), optimizations=()
        )
        assert not suite.sound
