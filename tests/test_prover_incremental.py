"""The incremental prover search checked against the naive definitions.

The search (mod-times E-matching + watched ground clauses) is an
optimization of the naive one — full re-match every round, full rescan
every propagation pass — not a different prover.  ``tests/oracle_scan.py``
swaps the naive definitions in: the ``"reference"`` runs below re-check
every stable scan against a full rescan and match the whole e-graph every
round.  Results must be byte-identical — same status, same counterexample
context — and, round by round, the *same set* of ground instances must be
admitted:

* obligation-level cross-checks over the shipped optimization suite
  (fast subset always; the full suite under ``-m slow``);
* round-by-round instance-set equivalence via
  ``ProverConfig.record_round_instances``, over real obligations and 50
  seeded-random goals;
* a timeout regression: ``prove`` must return within a small factor of
  ``timeout_s`` even while an explosive E-matching round is in flight.
"""

import contextlib

import random
import time

import pytest

from repro.logic.formulas import (
    And,
    Eq,
    Forall,
    Implies,
    Not,
    Or,
    Pred,
)
from repro.logic.terms import App, IntConst, LVar
from repro.opts import ALL_OPTIMIZATIONS, taintedness_analysis
from repro.prover import Prover, ProverConfig
from repro.verify import SoundnessChecker
from repro.verify.checker import discharge_obligation
from repro.verify.encode import CONSTRUCTORS, all_axioms
from repro.verify.obligations import ObligationBuilder
from repro.cobalt.labels import standard_registry

from tests.oracle_scan import reference_search

#: ``"incremental"`` is the production search as shipped; ``"reference"``
#: is the same search under the naive rescan and full re-match oracles.
MODES = ("reference", "incremental")


def _mode(mode):
    return reference_search() if mode == "reference" else contextlib.nullcontext()

#: Cheap rows for the always-on cross-check; the slow test covers the rest.
FAST_OPTS = [
    o
    for o in ALL_OPTIMIZATIONS
    if o.name
    in {"constProp", "copyProp", "constFold", "branchFold", "selfAssignRemoval"}
]


def _report_fingerprint(report):
    """Everything a mode could influence: status tree + failure contexts."""
    ctxs = tuple(
        (r.obligation, r.proved, tuple(r.context)) for r in report.results
    )
    for dep in report.dependencies:
        ctxs += tuple(
            (r.obligation, r.proved, tuple(r.context)) for r in dep.results
        )
    return report.canonical(), ctxs


def _check_modes(opt):
    fps = {}
    for mode in MODES:
        checker = SoundnessChecker(config=ProverConfig(timeout_s=120.0))
        with _mode(mode):
            fps[mode] = _report_fingerprint(checker.check_optimization(opt))
    assert fps["reference"] == fps["incremental"], (
        f"{opt.name}: modes disagree"
    )


@pytest.mark.parametrize("opt", FAST_OPTS, ids=lambda o: o.name)
def test_modes_identical_fast(opt):
    _check_modes(opt)


@pytest.mark.slow
@pytest.mark.parametrize("opt", ALL_OPTIMIZATIONS, ids=lambda o: o.name)
def test_modes_identical_full_suite(opt):
    _check_modes(opt)


@pytest.mark.slow
def test_modes_identical_analysis():
    fps = {}
    for mode in MODES:
        checker = SoundnessChecker(config=ProverConfig(timeout_s=120.0))
        with _mode(mode):
            fps[mode] = _report_fingerprint(
                checker.check_analysis(taintedness_analysis)
            )
    assert fps["reference"] == fps["incremental"]


# ---------------------------------------------------------------------------
# Round-by-round instance-set equivalence.
#
# The mod-times completeness argument says: every instance a full
# re-enumeration discovers in round r is either newly matchable
# (and thus found by the restricted passes) or was deferred by the relevance
# guard in an earlier round (and thus carried over).  Recording the admitted
# instances per round makes that argument executable.
# ---------------------------------------------------------------------------


def _rounds_for_obligations(opt_names):
    """Round-by-round admissions for every obligation of the named opts."""
    by_name = {o.name: o for o in ALL_OPTIMIZATIONS}
    builder = ObligationBuilder(standard_registry(), {})
    traces = {mode: [] for mode in MODES}
    for mode in MODES:
        cfg = ProverConfig(timeout_s=120.0, record_round_instances=True)
        prover = Prover(all_axioms(), constructors=CONSTRUCTORS, config=cfg)
        for name in opt_names:
            pattern = by_name[name].pattern
            from repro.cobalt.dsl import BackwardPattern

            if isinstance(pattern, BackwardPattern):
                obligations = builder.backward_obligations(pattern)
            else:
                obligations = builder.forward_obligations(pattern)
            for ob in obligations:
                with _mode(mode):
                    result = discharge_obligation(prover, name, ob)
                traces[mode].append((name, ob.name, result.proved))
    return traces


def test_round_by_round_obligations():
    """Both modes discharge the fast rows' obligations identically.

    ``record_round_instances`` feeds ``Result.round_instances``; the
    per-case comparison happens inside ``_prove_both`` below for goals, and
    at the obligation level here (identical verdict sequence implies the
    search — driven entirely by the admitted instances — never diverged).
    """
    names = [o.name for o in FAST_OPTS]
    traces = _rounds_for_obligations(names)
    assert traces["reference"] == traces["incremental"]


def _prove_both(goal, axioms=(), cfg_kw=None):
    """Prove ``goal`` in both modes; rounds and results must coincide."""
    kw = dict(timeout_s=20.0, record_round_instances=True)
    kw.update(cfg_kw or {})
    out = {}
    for mode in MODES:
        prover = Prover(list(axioms), config=ProverConfig(**kw))
        with _mode(mode):
            result = prover.prove(goal)
        rounds = [sorted(r) for r in (result.round_instances or [])]
        out[mode] = (result.status, tuple(result.context), rounds)
    assert out["reference"] == out["incremental"], "modes diverged"
    return out["reference"]


def test_round_by_round_kind_split_obligation():
    """A quantified goal whose proof needs instantiation rounds."""
    x, y = LVar("x"), LVar("y")
    f = lambda t: App("f", (t,))
    axioms = [
        Forall(("x",), Implies(Pred("P", (x,)), Pred("P", (f(x),)))),
        Forall(
            ("x", "y"),
            Implies(
                And((Pred("P", (x,)), Eq(f(x), f(y)))), Pred("Q", (y,))
            ),
        ),
    ]
    goal = Implies(Pred("P", (App("a"),)), Pred("Q", (f(App("a")),)))
    status, _, rounds = _prove_both(goal, axioms)
    assert status.name == "PROVED"
    assert rounds, "instantiation rounds were recorded"


class _GoalGen:
    """Seeded random ground goals over a small equational vocabulary."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.consts = [App(n) for n in "abcde"]

    def term(self, depth=2):
        r = self.rng
        if depth == 0 or r.random() < 0.4:
            if r.random() < 0.8:
                return r.choice(self.consts)
            return IntConst(r.randrange(4))
        fn = r.choice(["f", "g", "pair"])
        if fn == "pair":
            return App("pair", (self.term(depth - 1), self.term(depth - 1)))
        return App(fn, (self.term(depth - 1),))

    def atom(self):
        if self.rng.random() < 0.6:
            return Eq(self.term(), self.term())
        return Pred("P", (self.term(),))

    def formula(self, depth=3):
        r = self.rng.random()
        if depth == 0 or r < 0.35:
            f = self.atom()
            return Not(f) if self.rng.random() < 0.3 else f
        if r < 0.55:
            return And((self.formula(depth - 1), self.formula(depth - 1)))
        if r < 0.75:
            return Or((self.formula(depth - 1), self.formula(depth - 1)))
        if r < 0.9:
            return Implies(self.formula(depth - 1), self.formula(depth - 1))
        return Not(self.formula(depth - 1))


#: Quantified background theory so random goals exercise E-matching, the
#: relevance guard is irrelevant here (no kind literals), and the watched
#: scan and its naive re-check see merges, disequalities, and backtracking.
def _random_theory():
    x, y = LVar("x"), LVar("y")
    f = lambda t: App("f", (t,))
    g = lambda t: App("g", (t,))
    return [
        Forall(("x",), Eq(f(g(x)), g(f(x)))),
        Forall(("x",), Implies(Pred("P", (x,)), Pred("P", (f(x),)))),
        Forall(
            ("x", "y"),
            Implies(And((Eq(x, y), Pred("P", (x,)))), Pred("P", (y,))),
        ),
    ]


def test_round_by_round_random_goals():
    """50 seeded-random goals: same verdict, context, and rounds per mode."""
    theory = _random_theory()
    proved = 0
    for seed in range(50):
        gen = _GoalGen(seed)
        goal = gen.formula()
        if seed % 2:
            # Valid by construction (modus ponens over random formulas),
            # so the corpus mixes refutations with saturations.
            other = gen.formula()
            goal = Implies(And((goal, Implies(goal, other))), other)
        status, _, _ = _prove_both(
            goal,
            theory,
            cfg_kw=dict(max_rounds=4, max_instances=500, timeout_s=10.0),
        )
        proved += status.name == "PROVED"
    # Sanity: the corpus is a genuine mix, not all-trivial one way.
    assert 0 < proved < 50


# ---------------------------------------------------------------------------
# Timeout enforcement inside _instantiate / the scan loops.
# ---------------------------------------------------------------------------


def _explosive_setup():
    """~200 ground facts and a quadratic multi-pattern: one E-matching
    round enumerates ~40k bindings, so a tiny timeout necessarily fires
    *inside* ``_instantiate`` (or the scan that follows), not between
    rounds.  A second axiom, ``P(x) => P(s(x))``, keeps adding ``P`` facts,
    so the search never saturates: however fast the prover gets, only a
    resource limit can end it."""
    x, y = LVar("x"), LVar("y")
    facts = [Pred("P", (App(f"c{i}"),)) for i in range(200)]
    axiom = Forall(
        ("x", "y"),
        Implies(
            And((Pred("P", (x,)), Pred("P", (y,)))),
            Pred("Q", (App("pair", (x, y)),)),
        ),
        triggers=((App("P", (x,)), App("P", (y,))),),
    )
    grow = Forall(
        ("x",),
        Implies(Pred("P", (x,)), Pred("P", (App("s", (x,)),))),
        triggers=((App("P", (x,)),),),
    )
    goal = Implies(And(tuple(facts)), Pred("R", (App("z"),)))
    return [axiom, grow], goal


@pytest.mark.parametrize("mode", MODES)
def test_timeout_enforced_mid_instantiation(mode):
    axioms, goal = _explosive_setup()
    cfg = ProverConfig(timeout_s=0.2, max_rounds=50, max_instances=500_000)
    prover = Prover(axioms, config=cfg)
    start = time.monotonic()
    with _mode(mode):
        result = prover.prove(goal)
    elapsed = time.monotonic() - start
    assert not result.proved
    # Generous factor for loaded CI machines; without the in-loop deadline
    # checks this blows past 10s (one full quadratic round).
    assert elapsed < 5.0, (
        f"prove() took {elapsed:.2f}s against timeout_s=0.2"
    )
    assert any("resource limit" in line for line in result.context)
