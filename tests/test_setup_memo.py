"""The per-process setup memos of a checker and its obligations.

A warm daemon job builds a ``SoundnessChecker`` and the obligations of
every item it is asked about; everything those steps derive from fixed
inputs is memoized per process:

* the standard label registry (one shared, frozen object);
* the prover's base clauses, per axiom tuple;
* the background theory's cache digest;
* the obligations of a pattern or analysis, per (item compared
  structurally, registry by identity, semantic meanings in name order).

Covered here: memo on == memo off (``structural_reference``) for every
shipped, buggy and ``cobalt/suite.cobalt`` item, hits for re-parsed
blocks, misses for another meaning or registry, no memo of a raising
call, the caps, ``clear_memos``, and racing threads.
"""

import dataclasses
import sys
import threading
from pathlib import Path

import pytest

from repro.cobalt.dsl import Optimization, PureAnalysis
from repro.cobalt.guards import GLabel, GNot
from repro.cobalt.labels import CaseLabel, LabelError, standard_registry
from repro.cobalt.labels import _STANDARD_MEMO
from repro.cobalt.parser import parse_blocks
from repro.cobalt.patterns import VarPat
from repro.cobalt.witness import TrueWitness
from repro.logic import intern
from repro.opts import ALL_ANALYSES, ALL_OPTIMIZATIONS, const_prop, const_prop_pt
from repro.opts.buggy import ALL_BUGGY
from repro.opts.pointer import taintedness_analysis
from repro.prover import Prover
from repro.prover import core
from repro.verify import SoundnessChecker
from repro.verify import encode
from repro.verify import obligations as obligations_mod
from repro.verify.labels2logic import TranslationError
from repro.verify.obligations import ObligationBuilder

SUITE_COBALT = (Path(__file__).parent.parent / "cobalt" / "suite.cobalt").read_text()

MEMOS = {
    "standard registry": _STANDARD_MEMO,
    "prover base clauses": core._BASE_MEMO,
    "axiom digest": encode._DIGEST_MEMO,
    "obligations": obligations_mod._OBLIGATION_MEMO,
}


@pytest.fixture(autouse=True)
def _fresh_memos():
    intern.clear_memos()
    yield
    intern.clear_memos()


def _source_items():
    items = parse_blocks(SUITE_COBALT)
    analyses = [i for i in items if isinstance(i, PureAnalysis)]
    opts = [i if isinstance(i, Optimization) else Optimization(i)
            for i in items if not isinstance(i, PureAnalysis)]
    return analyses, opts


def _all_keys():
    """Obligation keys of the shipped suite, ``ALL_BUGGY`` and every
    ``cobalt/suite.cobalt`` block, each from a freshly built checker."""
    analyses, opts = _source_items()
    shipped = SoundnessChecker().suite_obligation_keys(
        ALL_ANALYSES, list(ALL_OPTIMIZATIONS) + list(ALL_BUGGY)
    )
    return shipped + SoundnessChecker().suite_obligation_keys(analyses, opts)


def _obligations(pattern, registry=None, meanings=None):
    builder = ObligationBuilder(registry or standard_registry(), meanings or {})
    if pattern.direction == "backward":
        return builder.backward_obligations(pattern)
    return builder.forward_obligations(pattern)


def _all_obligations():
    analyses, opts = _source_items()
    out = []
    for opt in list(ALL_OPTIMIZATIONS) + list(ALL_BUGGY) + opts:
        meanings = {a.label_name: a for a in opt.analyses}
        out.append(_obligations(opt.pattern, meanings=meanings))
    for analysis in list(ALL_ANALYSES) + analyses:
        out.append(ObligationBuilder(standard_registry()).analysis_obligations(analysis))
    return out


def _custom_pattern():
    """constProp with its ``!mayDef(Y)`` spelt through a label ``myDef``."""
    return dataclasses.replace(
        const_prop.pattern, psi2=GNot(GLabel("myDef", (VarPat("Y"),)))
    )


def _registry_with(body_of: str):
    registry = standard_registry().copy()
    registry.define(CaseLabel("myDef", ("Y",), registry.lookup(body_of).body))
    return registry


class TestSameResults:
    def test_keys_and_obligations_match_the_unmemoized_build(self):
        with intern.structural_reference():
            fresh_keys = _all_keys()
            fresh_obligations = _all_obligations()
        assert len(fresh_keys) > 120
        assert _all_keys() == fresh_keys  # memo misses, then stores
        assert all(MEMOS.values())
        assert _all_keys() == fresh_keys  # memo hits
        assert _all_obligations() == fresh_obligations

    def test_prover_base_clauses_match_the_unmemoized_build(self):
        with intern.structural_reference():
            fresh = Prover(encode.all_axioms())
        memo = Prover(encode.all_axioms())
        again = Prover(encode.all_axioms())
        assert memo._base_clauses == again._base_clauses == fresh._base_clauses
        assert memo._base_clauses is not again._base_clauses
        assert memo._axiom_counter == fresh._axiom_counter == len(encode.all_axioms())

    def test_standard_registry_is_shared_and_frozen(self):
        registry = standard_registry()
        assert standard_registry() is registry
        with pytest.raises(LabelError, match="copy"):
            registry.define(CaseLabel("custom", (), GNot(GLabel("mayDef", ()))))
        clone = registry.copy()
        clone.define(CaseLabel("custom", (), GNot(GLabel("mayDef", ()))))
        assert "custom" not in registry.defs


class TestObligationMemo:
    def test_reparsed_block_hits(self):
        first = parse_blocks(SUITE_COBALT)[0]
        again = parse_blocks(SUITE_COBALT)[0]
        assert first is not again and first == again
        obs = _obligations(first)
        size = len(obligations_mod._OBLIGATION_MEMO)
        hit = _obligations(again)
        assert len(obligations_mod._OBLIGATION_MEMO) == size
        assert hit is not obs  # a fresh list ...
        assert all(a is b for a, b in zip(hit, obs))  # ... of the memo's entries

    def test_another_meaning_under_one_label_changes_the_obligations(self):
        pattern = const_prop_pt.pattern
        real = {"notTainted": taintedness_analysis}
        other = {"notTainted": dataclasses.replace(
            taintedness_analysis, witness=TrueWitness())}
        base = _obligations(pattern, meanings=real)
        assert _obligations(pattern, meanings=real) == base  # a hit
        changed = _obligations(pattern, meanings=other)
        with intern.structural_reference():
            expected = _obligations(pattern, meanings=other)
        assert changed == expected
        assert [o.goal for o in changed] != [o.goal for o in base]

    def test_an_extended_copy_of_the_registry_misses(self):
        pattern = _custom_pattern()
        as_may_def = _obligations(pattern, _registry_with("mayDef"))
        size = len(obligations_mod._OBLIGATION_MEMO)
        as_syntactic = _obligations(pattern, _registry_with("syntacticDef"))
        assert len(obligations_mod._OBLIGATION_MEMO) == size + 1
        assert [o.goal for o in as_may_def] != [o.goal for o in as_syntactic]

    def test_a_raising_build_is_not_memoized(self):
        # The label is undefined, so the build raises; defining it on the
        # same registry object must make the next build succeed.
        pattern = _custom_pattern()
        registry = standard_registry().copy()
        size = len(obligations_mod._OBLIGATION_MEMO)
        for _ in range(2):
            with pytest.raises((LabelError, TranslationError)):
                _obligations(pattern, registry)
        assert len(obligations_mod._OBLIGATION_MEMO) == size
        registry.define(CaseLabel("myDef", ("Y",), registry.lookup("mayDef").body))
        assert len(_obligations(pattern, registry)) == 3


class TestBounds:
    def test_caps_are_respected(self, monkeypatch):
        monkeypatch.setattr(obligations_mod, "_OBLIGATION_MEMO_MAX", 4)
        monkeypatch.setattr(core, "_BASE_MEMO_MAX", 2)
        axioms = encode.all_axioms()[:3]
        for i in range(10):
            renamed = dataclasses.replace(const_prop.pattern, name=f"p{i}")
            _obligations(renamed)
            Prover(axioms[: i % 3 + 1] + [("extra", axioms[0])] * i)
            assert len(obligations_mod._OBLIGATION_MEMO) <= 4
            assert len(core._BASE_MEMO) <= 2
        SoundnessChecker()
        SoundnessChecker()
        assert len(_STANDARD_MEMO) == len(encode._DIGEST_MEMO) == 1

    def test_clear_memos_empties_every_setup_memo(self):
        SoundnessChecker().suite_obligation_keys(ALL_ANALYSES, ALL_OPTIMIZATIONS)
        assert all(MEMOS.values())
        intern.clear_memos()
        assert not any(MEMOS.values())

    def test_structural_reference_bypasses_every_setup_memo(self):
        with intern.structural_reference():
            assert standard_registry() is not standard_registry()
            SoundnessChecker().suite_obligation_keys(optimizations=[const_prop])
            assert not any(MEMOS.values())

    def test_threads_racing_clears_get_the_serial_keys(self, monkeypatch):
        # Job threads share the memos; tiny caps make every thread clear
        # them under the others, which may cost recomputes, never a key.
        expected = _all_keys()
        monkeypatch.setattr(obligations_mod, "_OBLIGATION_MEMO_MAX", 2)
        monkeypatch.setattr(core, "_BASE_MEMO_MAX", 1)
        outcomes = []

        def work():
            outcomes.append(all(_all_keys() == expected for _ in range(2)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert outcomes == [True] * 4
