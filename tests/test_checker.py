"""End-to-end soundness-checker tests: the paper's headline results.

* every optimization and analysis of the suite is automatically proven
  sound (section 5.1: "we have implemented and automatically proven sound a
  dozen Cobalt optimizations and analyses");
* every deliberately buggy variant is rejected, with a counterexample
  context, at the obligation where the bug lives (section 6, debugging
  value).
"""

import pytest

from repro.prover import ProverConfig
from repro.verify import SoundnessChecker
from repro.opts import (
    ALL_OPTIMIZATIONS,
    branch_fold,
    const_fold,
    const_prop,
    const_prop_pt,
    copy_prop,
    cse,
    dae,
    load_elim,
    pre_duplicate,
    self_assign_removal,
    taintedness_analysis,
)
from repro.opts.buggy import (
    assign_removal_overbroad,
    const_prop_no_pointers,
    const_prop_wrong_witness,
    copy_prop_no_target_check,
    cse_self_referential,
    dae_no_use_check,
    load_elim_direct_assign,
)


class _CachingChecker(SoundnessChecker):
    """Caches per-optimization reports so tests can re-examine them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._report_cache = {}

    def check_optimization(self, opt):
        if opt.name not in self._report_cache:
            self._report_cache[opt.name] = super().check_optimization(opt)
        return self._report_cache[opt.name]


@pytest.fixture(scope="module")
def checker():
    return _CachingChecker(config=ProverConfig(timeout_s=90))


class TestSoundOptimizations:
    def test_const_prop(self, checker):
        assert checker.check_optimization(const_prop).sound

    def test_const_prop_pointer_aware(self, checker):
        report = checker.check_optimization(const_prop_pt)
        assert report.sound
        assert report.dependencies and report.dependencies[0].name == "taintedness"

    def test_copy_prop(self, checker):
        assert checker.check_optimization(copy_prop).sound

    def test_const_fold(self, checker):
        assert checker.check_optimization(const_fold).sound

    def test_branch_fold(self, checker):
        assert checker.check_optimization(branch_fold).sound

    def test_cse(self, checker):
        assert checker.check_optimization(cse).sound

    def test_load_elim(self, checker):
        assert checker.check_optimization(load_elim).sound

    def test_dae(self, checker):
        assert checker.check_optimization(dae).sound

    def test_pre_duplicate(self, checker):
        assert checker.check_optimization(pre_duplicate).sound

    def test_self_assign_removal(self, checker):
        assert checker.check_optimization(self_assign_removal).sound

    def test_taintedness_analysis(self, checker):
        assert checker.check_analysis(taintedness_analysis).sound

    def test_whole_suite_obligation_counts(self, checker):
        # Forward patterns discharge F1-F3, backward ones B1-B3.
        report = checker.check_optimization(dae)
        assert [r.obligation for r in report.results] == ["B1", "B2", "B3"]
        report = checker.check_optimization(const_prop)
        assert [r.obligation for r in report.results] == ["F1", "F2", "F3"]


class TestBuggyVariantsRejected:
    """Section 6: the checker as a bug-finding tool.

    Each variant must be rejected at the obligation its bug violates."""

    def _failed(self, checker, opt):
        report = checker.check_optimization(opt)
        assert not report.sound
        return {r.obligation for r in report.failed_obligations()}, report

    def test_const_prop_ignoring_pointers(self, checker):
        failed, report = self._failed(checker, const_prop_no_pointers)
        assert "F2" in failed  # pointer store in the region breaks the witness

    def test_load_elim_direct_assignment_bug(self, checker):
        # The paper's flagship section 6 story.
        failed, report = self._failed(checker, load_elim_direct_assign)
        assert "F2" in failed

    def test_dae_without_use_check(self, checker):
        # x := x + 1 both defines and uses x; treating it as enabling is
        # wrong, caught when the traces fail to merge (B3).
        failed, report = self._failed(checker, dae_no_use_check)
        assert "B3" in failed

    def test_copy_prop_without_target_check(self, checker):
        failed, report = self._failed(checker, copy_prop_no_target_check)
        assert "F2" in failed

    def test_cse_self_referential(self, checker):
        failed, report = self._failed(checker, cse_self_referential)
        assert "F1" in failed  # X := E with X in E does not establish the witness

    def test_wrong_witness_rejected(self, checker):
        # Footnote 1: correctness never depends on trusting the witness —
        # a bogus witness simply fails its proofs.
        failed, report = self._failed(checker, const_prop_wrong_witness)
        assert failed  # at least one obligation fails

    def test_overbroad_assign_removal(self, checker):
        failed, report = self._failed(checker, assign_removal_overbroad)
        assert "F3" in failed

    def test_counterexample_context_reported(self, checker):
        report = checker.check_optimization(assign_removal_overbroad)
        failing = report.failed_obligations()[0]
        assert failing.context  # Simplify-style counterexample context

    def test_insertion_without_unchanged_rejected(self, checker):
        # The footnote-6 progress conditions: inserting X := E where the
        # region may change E's operands can turn a returning run into a
        # stuck one (e.g. a division that is safe later but not at the
        # insertion point).  Caught at the backward-evaluability obligation.
        from repro.opts.buggy import pre_duplicate_no_unchanged

        report = checker.check_optimization(pre_duplicate_no_unchanged)
        assert not report.sound
        assert "B0b" in {r.obligation for r in report.failed_obligations()}

    def test_insertion_progress_bug_is_real(self, checker):
        # The concrete miscompilation justifying the rejection above.
        from repro.il import parse_program
        from repro.cobalt.engine import CobaltEngine
        from repro.cobalt.labels import standard_registry
        from repro.opts.buggy import pre_duplicate_no_unchanged
        from repro.fuzz.oracle import check_equivalence

        program = parse_program(
            """
            main(n) {
              decl y;
              decl x;
              skip;
              y := 2;
              x := 1 / y;
              return x;
            }
            """
        )
        engine = CobaltEngine(standard_registry())
        delta = engine.legal_transformations(
            pre_duplicate_no_unchanged.pattern, program.main
        )
        assert any(inst.index == 2 for inst in delta)  # the skip is "legal"
        transformed = program.with_proc(
            engine.apply_pattern(pre_duplicate_no_unchanged.pattern, program.main, delta)
        )
        # y is 0 at the insertion point: 1/0 sticks where the original ran.
        assert check_equivalence(program, transformed, [0]) is not None

    def test_backward_progress_obligations_present(self, checker):
        from repro.opts import pre_duplicate

        report = checker.check_optimization(pre_duplicate)
        names = [r.obligation for r in report.results]
        assert names == ["B1", "B2", "B3", "B0a", "B0b", "B0c"]
        assert report.sound

    def test_dae_has_no_progress_obligations(self, checker):
        # s' = skip: the evaluability invariant is trivial.
        report = checker.check_optimization(dae)
        assert [r.obligation for r in report.results] == ["B1", "B2", "B3"]


class TestDischarge:
    def test_zero_cases_is_an_error_not_a_vacuous_proof(self, monkeypatch):
        # An obligation whose case analysis is empty must never be "proved"
        # by an all-of-nothing loop — emptying the statement-kind table
        # turns every split obligation into exactly that trap.
        from repro.cobalt.labels import standard_registry
        from repro.prover import Prover
        from repro.verify import encode as E
        from repro.verify.checker import discharge_obligation
        from repro.verify.obligations import ObligationBuilder

        ob = next(
            o for o in ObligationBuilder(standard_registry()).forward_obligations(
                const_prop.pattern
            )
            if o.split_term is not None
        )
        monkeypatch.setattr(E, "STMT_KINDS", ())
        prover = Prover(E.all_axioms(), constructors=E.CONSTRUCTORS)
        result = discharge_obligation(prover, "constProp", ob, ProverConfig(timeout_s=60.0))
        assert not result.proved
        assert any("no proof cases" in line for line in result.context)
