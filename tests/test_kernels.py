"""The e-graph kernel checked against the naive oracle.

The kernel (struct-of-arrays congruence closure + compiled trigger
programs, ``src/repro/prover/kernels/``) is checked against
``tests/oracle_egraph.py`` in two ways (docs/KERNELS.md):

* randomized traces (add_term / assert_eq / assert_diseq / push / pop)
  drive the kernel and the naive recomputing closure side by side,
  comparing the relation and conflict status of every term pair, the
  classes, numeral values and representatives after every operation;
* every prover search over the shipped suite, the fuzzing corpus and
  seeded-random goals runs on the *audited* kernel — the ``"reference"``
  parameter below — which checks the closure invariants (congruence,
  injectivity, numerals, folding, member cycles, representatives) at
  every decision and every instantiation round.  Auditing only observes,
  so audited and plain (``"flat"``) runs must be byte-identical.

The proof cache must not notice that the kernel and mode switches are
gone: the schema version and config fingerprint are unchanged, and a store
written while they still existed replays with zero misses.
"""

import contextlib
import random
import shutil
import time
from dataclasses import fields
from pathlib import Path

import pytest

from repro.api import ProverOptions, VerifyOptions
from repro.fuzz import DEFAULT_CORPUS_DIR, load_entries, replay_entry
from repro.fuzz.campaign import FRONTIER_PROVER_OPTIONS
from repro.logic.formulas import And, Eq, Implies, Pred
from repro.logic.terms import App, IntConst
from repro.opts import ALL_OPTIMIZATIONS, taintedness_analysis
from repro.opts.buggy import ALL_BUGGY
from repro.prover import Prover, ProverConfig
from repro.prover.kernels import FlatEGraph, compile_trigger, kernel_identity
from repro.verify import SoundnessChecker
from repro.verify.cache import SCHEMA_VERSION, config_fingerprint

from tests.oracle_egraph import NaiveEGraph, audited_kernel
from tests.test_prover_incremental import (
    FAST_OPTS,
    _explosive_setup,
    _GoalGen,
    _random_theory,
    _report_fingerprint,
)

#: ``"flat"`` is the kernel as shipped; ``"reference"`` is the same kernel
#: audited against the oracle's closure invariants.
KERNELS = ("reference", "flat")


def _kernel(kernel):
    return audited_kernel() if kernel == "reference" else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Obligation-level audits over the shipped suite.
# ---------------------------------------------------------------------------


def _check_kernels(opt):
    checker = SoundnessChecker(config=ProverConfig(timeout_s=120.0))
    with audited_kernel():
        report = checker.check_optimization(opt)
    assert report.sound, f"{opt.name}: rejected on the audited kernel"


@pytest.mark.parametrize("opt", FAST_OPTS, ids=lambda o: o.name)
def test_kernels_identical_fast(opt):
    _check_kernels(opt)


@pytest.mark.slow
@pytest.mark.parametrize("opt", ALL_OPTIMIZATIONS, ids=lambda o: o.name)
def test_kernels_identical_full_suite(opt):
    _check_kernels(opt)


@pytest.mark.slow
def test_kernels_identical_analysis():
    checker = SoundnessChecker(config=ProverConfig(timeout_s=120.0))
    with audited_kernel():
        report = checker.check_analysis(taintedness_analysis)
    assert report.sound


# ---------------------------------------------------------------------------
# Seeded-random goals: verdict, context, and rounds, audited and plain.
# ---------------------------------------------------------------------------


def _prove_both_kernels(goal, axioms=(), cfg_kw=None):
    kw = dict(timeout_s=20.0, record_round_instances=True)
    kw.update(cfg_kw or {})
    out = {}
    for kernel in KERNELS:
        prover = Prover(list(axioms), config=ProverConfig(**kw))
        with _kernel(kernel):
            result = prover.prove(goal)
        rounds = [sorted(r) for r in (result.round_instances or [])]
        out[kernel] = (result.status, tuple(result.context), rounds)
    assert out["reference"] == out["flat"], "auditing changed the search"
    return out["reference"]


def test_random_goals_identical():
    """50 seeded-random goals on the audited kernel."""
    theory = _random_theory()
    proved = 0
    for seed in range(50):
        gen = _GoalGen(seed)
        goal = gen.formula()
        if seed % 2:
            other = gen.formula()
            goal = Implies(And((goal, Implies(goal, other))), other)
        status, _, _ = _prove_both_kernels(
            goal,
            theory,
            cfg_kw=dict(max_rounds=4, max_instances=500, timeout_s=10.0),
        )
        proved += status.name == "PROVED"
    assert 0 < proved < 50


def test_quantified_goal_rounds_identical():
    """A goal whose proof needs instantiation rounds, audited."""
    from repro.logic.terms import LVar
    from repro.logic.formulas import Forall

    x, y = LVar("x"), LVar("y")
    f = lambda t: App("f", (t,))
    axioms = [
        Forall(("x",), Implies(Pred("P", (x,)), Pred("P", (f(x),)))),
        Forall(
            ("x", "y"),
            Implies(And((Pred("P", (x,)), Eq(f(x), f(y)))), Pred("Q", (y,))),
        ),
    ]
    goal = Implies(Pred("P", (App("a"),)), Pred("Q", (f(App("a")),)))
    status, _, rounds = _prove_both_kernels(goal, axioms)
    assert status.name == "PROVED"
    assert rounds, "instantiation rounds were recorded"


# ---------------------------------------------------------------------------
# Fuzzing corpus: every stored failure replays, audited and plain.
# ---------------------------------------------------------------------------

ENTRIES = load_entries(DEFAULT_CORPUS_DIR)


def _corpus_options():
    return VerifyOptions(prover=FRONTIER_PROVER_OPTIONS)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "path,entry", ENTRIES, ids=[p.name for p, _ in ENTRIES]
)
def test_corpus_replays_per_kernel(path, entry, kernel):
    with _kernel(kernel):
        ok, detail = replay_entry(entry, _corpus_options())
    assert ok, f"{path.name} [{kernel}]: {detail}"


@pytest.mark.parametrize(
    "path,entry",
    [(p, e) for p, e in ENTRIES if e.kind == "unsound-rule"],
    ids=[p.name for p, e in ENTRIES if e.kind == "unsound-rule"],
)
def test_corpus_unsound_rules_fingerprint_identical(path, entry):
    """Known-unsound rules: the rejection report is byte-identical."""
    from repro.api import check_optimization
    from repro.fuzz.rules import rule_from_json

    rule = rule_from_json(entry.data["rule"])
    fps = {}
    for kernel in KERNELS:
        with _kernel(kernel):
            report = check_optimization(rule, _corpus_options())
        assert not report.sound, f"{path.name} [{kernel}]: now proves SOUND"
        fps[kernel] = _report_fingerprint(report)
    assert fps["reference"] == fps["flat"], f"{path.name}: auditing changed it"


# ---------------------------------------------------------------------------
# Randomized substrate traces: the kernel against the naive closure.
#
# The prover-level tests above exercise the kernel through one search
# policy; this drives it directly with operation sequences the search
# would never emit (deep push/pop nests, disequalities between interior
# terms, redundant asserts, arithmetic folding), comparing every
# observable after every operation.
# ---------------------------------------------------------------------------

_TRACE_CONSTRUCTORS = ("nil", "cons")


class _TraceGen:
    """Seeded random ground terms over a vocabulary with numerals,
    constructors, and interpreted arithmetic heads."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.consts = [App(n) for n in "abcd"]

    def term(self, depth=2):
        r = self.rng
        if depth == 0 or r.random() < 0.45:
            roll = r.random()
            if roll < 0.5:
                return r.choice(self.consts)
            if roll < 0.8:
                return IntConst(r.randrange(3))
            return App("nil")
        fn = r.choice(["f", "g", "pair", "cons", "@plus", "@times"])
        if fn in ("pair", "cons", "@plus", "@times"):
            return App(fn, (self.term(depth - 1), self.term(depth - 1)))
        return App(fn, (self.term(depth - 1),))


def _compare(flat, naive, probes):
    """Relations of every probe pair, classes, numerals, representatives."""
    ids = [flat.add_term(t) for t in probes]
    for i, (t1, a) in enumerate(zip(probes, ids)):
        assert flat.class_int_value(a) == naive.value.get(naive.find(t1)), t1
        assert flat.representative(a) == naive.representative(t1), t1
        for t2, b in zip(probes[i + 1:], ids[i + 1:]):
            assert flat.relation_ids(a, b) == naive.relation(t1, t2), (t1, t2)


@pytest.mark.parametrize("seed", range(12))
def test_random_traces_identical(seed):
    gen = _TraceGen(seed)
    rng = gen.rng
    flat = FlatEGraph(constructors=_TRACE_CONSTRUCTORS)
    naive = NaiveEGraph(constructors=_TRACE_CONSTRUCTORS)
    # One scope is always open, so a conflict can be popped away.
    flat.push()
    naive.push()
    depth = 1
    added = []
    for step in range(80):
        roll = rng.random()
        if roll < 0.35 or not added:
            t = gen.term()
            added.append(t)
            flat.add_term(t)
            naive.add_term(t)
            ok = True
        elif roll < 0.60:
            # Often two constants, so argument classes merge under their
            # parents (congruence on every argument position).
            pool = gen.consts if rng.random() < 0.5 else naive.terms
            t1, t2 = rng.choice(pool), rng.choice(pool)
            ok = flat.assert_eq(t1, t2)
            assert naive.assert_eq(t1, t2) == ok, f"seed {seed} step {step}: {t1} = {t2}"
        elif roll < 0.75:
            t1, t2 = rng.choice(added), rng.choice(added)
            ok = flat.assert_diseq(t1, t2)
            assert naive.assert_diseq(t1, t2) == ok, f"seed {seed} step {step}: {t1} != {t2}"
        elif roll < 0.85:
            flat.push()
            naive.push()
            depth += 1
            ok = True
        elif roll < 0.95 and depth > 1:
            flat.pop()
            naive.pop()
            depth -= 1
            ok = True
        else:
            flat.bump_generation()
            ok = True
        if not ok:
            # The conflicting scope is dead: drop it on both sides.
            flat.pop()
            naive.pop()
            if depth == 1:
                flat.push()
                naive.push()
            else:
                depth -= 1
        _compare(flat, naive, naive.terms)
    # Unwind every remaining scope: pop must restore the earlier states.
    while depth:
        flat.pop()
        naive.pop()
        depth -= 1
        _compare(flat, naive, naive.terms)


def test_members_agree_as_sets():
    """Member iteration order is a cycle order; the sets must match the
    naive classes."""
    gen = _TraceGen(99)
    flat = FlatEGraph(constructors=_TRACE_CONSTRUCTORS)
    naive = NaiveEGraph(constructors=_TRACE_CONSTRUCTORS)
    terms = [gen.term(3) for _ in range(30)]
    for t in terms:
        flat.add_term(t)
        naive.add_term(t)
    for i in range(0, 28, 2):
        flat.push()
        naive.push()
        if not flat.assert_eq(terms[i], terms[i + 1]):
            assert not naive.assert_eq(terms[i], terms[i + 1])
            flat.pop()
            naive.pop()
        else:
            assert naive.assert_eq(terms[i], terms[i + 1])
    for t in naive.terms:
        members = {flat.node_terms[m] for m in flat.members(flat.add_term(t))}
        assert members & set(naive.terms) == naive.class_of(t)


# ---------------------------------------------------------------------------
# Timeout enforcement inside the matcher.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_timeout_enforced_mid_match(kernel):
    axioms, goal = _explosive_setup()
    cfg = ProverConfig(timeout_s=0.2, max_rounds=50, max_instances=500_000)
    prover = Prover(axioms, config=cfg)
    start = time.monotonic()
    with _kernel(kernel):
        result = prover.prove(goal)
    elapsed = time.monotonic() - start
    assert not result.proved
    assert elapsed < 5.0, f"prove() took {elapsed:.2f}s against timeout_s=0.2"
    assert any("resource limit" in line for line in result.context)


# ---------------------------------------------------------------------------
# Cache identity: removing the kernel and mode switches changed no key.
# ---------------------------------------------------------------------------

#: A proof store written before the kernel/mode switches were removed:
#: constProp (proved), buggyConstPropNoPointers and buggyConstFoldWrongResult
#: (refuted; failures replay only under the same backend identity), checked
#: with ``ProverOptions(timeout_s=120.0)``.
PARENT_STORE = Path(__file__).parent / "golden" / "parent_store"


def test_cache_schema_and_fingerprint_exclude_kernel():
    assert SCHEMA_VERSION == 4, (
        "collapsing the kernels changed the cache schema; a pure "
        "simplification must not invalidate existing caches"
    )
    names = {f.name for f in fields(ProverConfig)}
    assert "kernel" not in names and "mode" not in names
    assert config_fingerprint(ProverConfig(timeout_s=120.0)) == (
        "rounds=12;instances=20000;decisions=200000;timeout=120.0"
    )


def test_cache_hits_survive_kernel_switch(tmp_path):
    store = tmp_path / "store"
    shutil.copytree(PARENT_STORE, store)
    by_name = {o.name: o for o in list(ALL_OPTIMIZATIONS) + list(ALL_BUGGY)}
    checker = SoundnessChecker(
        options=VerifyOptions(
            cache_dir=str(store), prover=ProverOptions(timeout_s=120.0)
        )
    )
    verdicts = [
        checker.check_optimization(by_name[name]).sound
        for name in (
            "constProp", "buggyConstPropNoPointers", "buggyConstFoldWrongResult"
        )
    ]
    assert verdicts == [True, False, False]
    assert checker.cache.stats.hits > 0
    assert checker.cache.stats.misses == 0, "a stored verdict did not replay"


# ---------------------------------------------------------------------------
# Kernel plumbing: identities, trigger compilation errors.
# ---------------------------------------------------------------------------


def test_kernel_identities():
    assert ProverConfig.kernel == "flat"
    assert ProverConfig().kernel == "flat"
    assert kernel_identity(ProverConfig().kernel).startswith("flat/")
    with pytest.raises(TypeError):
        ProverConfig(kernel="flat")


def test_stats_report_kernel_identity():
    prover = Prover([], config=ProverConfig())
    result = prover.prove(Eq(App("a"), App("a")))
    assert result.stats.kernel == kernel_identity("flat")
    assert kernel_identity("flat") in result.stats.table()
    assert "structural visits" in result.stats.table()


def test_compile_trigger_rejects_bare_variable():
    from repro.logic.terms import LVar

    eg = FlatEGraph()
    with pytest.raises(ValueError, match="bare variable"):
        compile_trigger(eg, (LVar("x"),))
