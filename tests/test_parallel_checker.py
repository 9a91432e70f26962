"""Parallel obligation discharge (repro.verify.parallel).

The contract under test: with ``jobs > 1`` the checker produces the *same
verdicts in the same order* as a serial checker — for sound optimizations,
for the deliberately buggy variants, and for the whole shipped
``cobalt/suite.cobalt`` file (slow) — and a wedged obligation is cut off by
the per-obligation hard timeout as ``unknown`` instead of hanging the run.
A checker builds one process pool for all of its items, and its workers
end when it is collected.
"""

import copy
import gc
import time
from dataclasses import replace

import pytest

from repro.cobalt.labels import standard_registry
from repro.logic.formulas import And, Forall, Implies, Pred
from repro.logic.terms import App, LVar
from repro.prover import Prover, ProverConfig
from repro.api import VerifyOptions
from repro.verify import SoundnessChecker
from repro.verify.checker import discharge_obligation
from repro.verify.encode import CONSTRUCTORS, all_axioms
from repro.verify.obligations import Obligation, ObligationBuilder
from repro.verify.parallel import discharge_parallel, make_executor
from repro.opts import (
    branch_fold,
    const_fold,
    const_prop,
    dae,
    self_assign_removal,
)
from repro.opts.buggy import (
    assign_removal_overbroad,
    const_prop_wrong_witness,
    copy_prop_no_target_check,
)

FAST = ProverConfig(timeout_s=60.0)


def _prover(config=FAST):
    return Prover(all_axioms(), constructors=CONSTRUCTORS, config=config)


def _discharge_parallel(owner, obligations, config, *, jobs, **kwargs):
    """``discharge_parallel`` over a pool of its own, shut down after."""
    executor = make_executor(config, jobs)
    try:
        return discharge_parallel(
            owner, obligations, config, executor=executor,
            fallback=_prover(config), **kwargs
        )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

FAST_ITEMS = [
    const_prop,
    const_fold,
    branch_fold,
    self_assign_removal,
    const_prop_wrong_witness,
    copy_prop_no_target_check,
    assign_removal_overbroad,
]


def _canonicals(checker, items):
    return [checker.check_optimization(opt).canonical() for opt in items]


class TestParallelMatchesSerial:
    def test_fast_subset_identical_reports(self):
        serial = SoundnessChecker(config=FAST)
        parallel = SoundnessChecker(config=FAST, options=VerifyOptions(jobs=2))
        assert _canonicals(parallel, FAST_ITEMS) == _canonicals(serial, FAST_ITEMS)

    def test_results_keep_obligation_order(self):
        obligations = ObligationBuilder(standard_registry()).forward_obligations(
            const_prop.pattern
        )
        results = _discharge_parallel("constProp", obligations, FAST, jobs=2)
        assert [r.obligation for r in results] == [ob.name for ob in obligations]

    @pytest.mark.slow
    def test_whole_suite_file_identical_reports(self):
        from pathlib import Path

        from repro.cli import parse_blocks
        from repro.cobalt.dsl import PureAnalysis
        from repro.opts import buggy

        suite_path = Path(__file__).parent.parent / "cobalt" / "suite.cobalt"
        items = parse_blocks(suite_path.read_text())
        config = ProverConfig(timeout_s=90.0)
        serial = SoundnessChecker(config=config)
        parallel = SoundnessChecker(config=config, options=VerifyOptions(jobs=2))
        for item in items:
            if isinstance(item, PureAnalysis):
                left = serial.check_analysis(item)
                right = parallel.check_analysis(item)
            else:
                left = serial.check_pattern(item)
                right = parallel.check_pattern(item)
            assert left.canonical() == right.canonical(), item.name
        for opt in buggy.ALL_BUGGY:
            left = serial.check_optimization(opt)
            right = parallel.check_optimization(opt)
            assert not right.sound, f"{opt.name} must stay rejected in parallel"
            assert left.canonical() == right.canonical(), opt.name


def _endless_obligation() -> Obligation:
    """An obligation no search can finish: the hypotheses grow the ``P``
    facts without bound (``P(x) => P(s(x))``), and a two-trigger
    multi-pattern makes every instantiation round quadratic in them.  The
    goal ``R(z)`` does not follow, so only a resource limit ends the
    search -- however fast the prover gets."""
    x, y = LVar("x"), LVar("y")
    facts = tuple(Pred("P", (App(f"c{i}"),)) for i in range(20))
    pairs = Forall(
        ("x", "y"),
        Implies(And((Pred("P", (x,)), Pred("P", (y,)))), Pred("Q", (App("pair", (x, y)),))),
        triggers=((App("P", (x,)), App("P", (y,))),),
    )
    grow = Forall(
        ("x",),
        Implies(Pred("P", (x,)), Pred("P", (App("s", (x,)),))),
        triggers=((App("P", (x,)),),),
    )
    return Obligation("endless", Implies(And(facts + (pairs, grow)), Pred("R", (App("z"),))))


class TestTimeouts:
    def test_hard_timeout_yields_unknown_not_hang(self):
        # Round and instance limits are lifted, so the worker's search can
        # only stop at the prover's cooperative 3s timeout; the 0.3s hard
        # wall-clock cap must answer ``unknown`` long before that.
        config = ProverConfig(
            timeout_s=3.0, max_rounds=10**6, max_instances=10**9, max_decisions=10**9
        )
        start = time.monotonic()
        results = _discharge_parallel(
            "endless", [_endless_obligation()], config, jobs=1, hard_timeout_s=0.3
        )
        elapsed = time.monotonic() - start
        assert len(results) == 1
        assert not results[0].proved
        assert any("hard timeout" in line for line in results[0].context)
        assert elapsed < 10.0, "hard timeout did not cut the wait short"

    def test_prover_timeout_yields_unknown(self, monkeypatch):
        # The cooperative path: a tiny prover budget answers unknown.  The
        # pattern's obligations are swapped for one no search can finish
        # (with every other limit lifted), so only the prover's own timeout
        # can end it -- a faster prover cannot turn this into a proof.
        monkeypatch.setattr(
            ObligationBuilder,
            "backward_obligations",
            lambda self, pattern: [_endless_obligation()],
        )
        config = ProverConfig(
            timeout_s=0.01, max_rounds=10**6, max_instances=10**9, max_decisions=10**9
        )
        checker = SoundnessChecker(config=config, options=VerifyOptions(jobs=2))
        report = checker.check_pattern(dae.pattern)
        assert not report.sound
        assert all(not r.proved for r in report.results)
        assert not any("hard timeout" in line for r in report.results for line in r.context)


class TestFallbacks:
    def test_unpicklable_obligation_falls_back_to_serial(self):
        obligations = ObligationBuilder(standard_registry()).forward_obligations(
            const_fold.pattern
        )
        bad = copy.copy(obligations[0])
        object.__setattr__(bad, "hook", lambda: None)  # poisons pickling
        results = _discharge_parallel("constFold", [bad], FAST, jobs=2)
        expected = discharge_obligation(_prover(), "constFold", obligations[0], FAST)
        assert len(results) == 1
        assert results[0].proved == expected.proved
        assert results[0].obligation == expected.obligation

    def test_jobs_one_never_spawns_pool(self, monkeypatch):
        import repro.verify.parallel as parallel_mod

        def boom(*args, **kwargs):
            raise AssertionError("jobs=1 must stay serial")

        monkeypatch.setattr(parallel_mod, "discharge_parallel", boom)
        checker = SoundnessChecker(config=FAST, options=VerifyOptions(jobs=1))
        assert checker.check_optimization(const_fold).sound


class TestBatchDedupe:
    def test_duplicate_obligations_proved_once(self):
        # One batch, no cache configured, the same goal under three names:
        # the checker searches it once and answers all three, in order,
        # under their own names.
        ob = ObligationBuilder(standard_registry()).forward_obligations(
            const_fold.pattern
        )[0]
        batch = [replace(ob, name=name) for name in ("X", "Y", "Z")]
        checker = SoundnessChecker(config=FAST)
        dispatched = []
        dispatch = checker._dispatch

        def recording(name, obligations):
            dispatched.append([o.name for o in obligations])
            return dispatch(name, obligations)

        checker._dispatch = recording
        report = checker._discharge("constFold", batch)
        assert dispatched == [["X"]]
        assert [r.obligation for r in report.results] == ["X", "Y", "Z"]
        assert [r.proved for r in report.results] == [True, True, True]
        assert report.results[0].stats is not None
        assert report.results[1].stats is None and report.results[2].stats is None


class TestOnePoolPerChecker:
    def test_multi_item_run_builds_one_pool_that_ends_with_its_checker(
        self, monkeypatch, tmp_path
    ):
        import repro.verify.parallel as parallel_mod
        from repro.cli import main

        built, workers = [], []

        def recording(config, jobs):
            executor = make_executor(config, jobs)
            built.append(executor)
            shutdown = executor.shutdown

            def snapshot_then_shutdown(*args, **kwargs):
                workers.extend(executor._processes.values())
                shutdown(*args, **kwargs)

            executor.shutdown = snapshot_then_shutdown
            return executor

        monkeypatch.setattr(parallel_mod, "make_executor", recording)
        source = tmp_path / "two.cobalt"
        source.write_text(_CONST_PROP + _COPY_PROP)
        # `check` builds one checker for every block in the file and drops
        # it when the command returns.
        assert main(["--timeout", "60", "--jobs", "2", "check", str(source)]) == 0
        gc.collect()
        assert len(built) == 1
        assert workers, "the checker never shut its pool down"
        assert all(not worker.is_alive() for worker in workers)


_CONST_PROP = """
forward optimization constProp {
  stmt(Y := C)
  followed by
  !mayDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}
"""

_COPY_PROP = """
forward optimization copyProp {
  stmt(Y := Z)
  followed by
  !mayDef(Y) && !mayDef(Z)
  until
  X := Y  =>  X := Z
  with witness
  eta(Y) == eta(Z)
}
"""
