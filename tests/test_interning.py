"""Hash-consing invariants (docs/TERMS.md).

Three layers of pinning:

1. **Semantics agreement** — for arbitrary generated terms/formulas, the
   interned operations must agree with the recursive structural walkers of
   ``tests/oracle_terms.py`` (the reference semantics) on ``==``, hash
   consistency, ``str``, free variables, size, groundness, and
   substitution.  Hypothesis when available, a seeded-random corpus of the
   same shape otherwise.
2. **Identity** — structurally equal interned nodes are the *same object*,
   including after pickle round-trips (the process-pool checker ships
   obligations through pickle) and ``copy``/``deepcopy``.
3. **Byte-identity of the memoized pipeline** — re-running the soundness
   checker with every transformation memo disabled
   (:func:`repro.logic.intern.structural_reference`) must reproduce the
   memo-on verdicts, counterexample contexts, and per-round instance logs
   exactly.  Fast subset always; the full suite under ``-m slow``.
"""

import copy
import gc
import pickle
import random

import pytest

from repro.logic import intern as I
from repro.logic import formulas as F
from repro.logic import terms as T
from repro.logic.formulas import (
    And,
    Clause,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    Pred,
    Top,
    Bottom,
    clausify,
    formula_free_vars,
    subst_formula,
)
from repro.logic.terms import App, IntConst, LVar, free_vars, is_ground, subst, term_size
from repro.opts import ALL_OPTIMIZATIONS
from repro.prover import Prover, ProverConfig
from repro.api import VerifyOptions
from repro.verify import SoundnessChecker

from tests import oracle_terms as ref

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# Generators: build *specs* (plain tuples), then realize each spec twice
# through the interning constructors, so equal specs are built by separate
# constructor calls.
# ---------------------------------------------------------------------------


def _term_spec(rng, depth=3):
    c = rng.random()
    if depth == 0 or c < 0.35:
        k = rng.randrange(4)
        if k == 0:
            return ("V", rng.choice("xyz"))
        if k == 1:
            return ("I", rng.randrange(4))
        return ("A", rng.choice("abc"), ())
    fn = rng.choice(["f", "g", "pair"])
    n = 2 if fn == "pair" else 1
    return ("A", fn, tuple(_term_spec(rng, depth - 1) for _ in range(n)))


def _formula_spec(rng, depth=3):
    c = rng.random()
    if depth == 0 or c < 0.3:
        k = rng.randrange(4)
        if k == 0:
            return ("Top",)
        if k == 1:
            return ("Bot",)
        if k == 2:
            return ("Eq", _term_spec(rng, 2), _term_spec(rng, 2))
        return ("Pred", rng.choice("PQ"), (_term_spec(rng, 2),))
    k = rng.randrange(7)
    if k == 0:
        return ("Not", _formula_spec(rng, depth - 1))
    if k == 1:
        return ("And", tuple(_formula_spec(rng, depth - 1) for _ in range(2)))
    if k == 2:
        return ("Or", tuple(_formula_spec(rng, depth - 1) for _ in range(2)))
    if k == 3:
        return ("Imp", _formula_spec(rng, depth - 1), _formula_spec(rng, depth - 1))
    if k == 4:
        return ("Iff", _formula_spec(rng, depth - 1), _formula_spec(rng, depth - 1))
    if k == 5:
        return ("FA", ("x",), _formula_spec(rng, depth - 1))
    return ("EX", ("y",), _formula_spec(rng, depth - 1))


def _build_term(spec, mod):
    tag = spec[0]
    if tag == "V":
        return mod.LVar(spec[1])
    if tag == "I":
        return mod.IntConst(spec[1])
    return mod.App(spec[1], tuple(_build_term(s, mod) for s in spec[2]))


def _build_formula(spec, mod):
    tag = spec[0]
    if tag == "Top":
        return mod.Top()
    if tag == "Bot":
        return mod.Bottom()
    if tag == "Eq":
        return mod.Eq(_build_term(spec[1], mod), _build_term(spec[2], mod))
    if tag == "Pred":
        return mod.Pred(spec[1], tuple(_build_term(s, mod) for s in spec[2]))
    if tag == "Not":
        return mod.Not(_build_formula(spec[1], mod))
    if tag == "And":
        return mod.And(tuple(_build_formula(s, mod) for s in spec[1]))
    if tag == "Or":
        return mod.Or(tuple(_build_formula(s, mod) for s in spec[1]))
    if tag == "Imp":
        return mod.Implies(_build_formula(spec[1], mod), _build_formula(spec[2], mod))
    if tag == "Iff":
        return mod.Iff(_build_formula(spec[1], mod), _build_formula(spec[2], mod))
    if tag == "FA":
        return mod.Forall(spec[1], _build_formula(spec[2], mod))
    return mod.Exists(spec[1], _build_formula(spec[2], mod))


_BINDING_SPECS = [
    {},
    {"x": ("A", "a", ())},
    {"x": ("A", "f", (("V", "y"),)), "y": ("I", 1)},
    {"z": ("A", "pair", (("A", "a", ()), ("I", 0)))},
]


def _check_pair(i1, i2, j1):
    """``i1``/``i2`` built from two specs; ``j1`` rebuilt from ``i1``'s."""
    # Equality agrees with structural identity; equal means identical.
    assert (i1 == i2) == (ref.key(i1) == ref.key(i2))
    assert i1 == j1 and i1 is j1, "equal interned nodes must be one object"
    assert hash(i1) == hash(j1)
    if i1 == i2:
        assert i1 is i2, "equal interned nodes must be the same object"
        assert hash(i1) == hash(i2)
    assert str(i1) == ref.render(i1)
    assert (repr(i1) == repr(i2)) == (ref.key(i1) == ref.key(i2))


def _check_term_pair(spec1, spec2, binding_spec):
    i1, i2 = _build_term(spec1, T), _build_term(spec2, T)
    _check_pair(i1, i2, _build_term(spec1, T))
    # The cached per-node facts.
    assert free_vars(i1) == ref.free(i1)
    assert term_size(i1) == ref.size(i1)
    assert is_ground(i1) == (not ref.free(i1))
    # The memoized substitution agrees with the recursive one.
    ib = {k: _build_term(v, T) for k, v in binding_spec.items()}
    kb = {k: ref.key(v) for k, v in ib.items()}
    assert ref.key(subst(i1, ib)) == ref.subst_key(i1, kb)


def _check_formula_pair(spec1, spec2, binding_spec):
    i1, i2 = _build_formula(spec1, F), _build_formula(spec2, F)
    _check_pair(i1, i2, _build_formula(spec1, F))
    assert formula_free_vars(i1) == ref.free(i1)
    ib = {k: _build_term(v, T) for k, v in binding_spec.items()}
    kb = {k: ref.key(v) for k, v in ib.items()}
    assert ref.key(subst_formula(i1, ib)) == ref.subst_key(i1, kb)


_SEED_CASES = [(seed, seed % len(_BINDING_SPECS)) for seed in range(60)]


@pytest.mark.parametrize("seed,bidx", _SEED_CASES[:30], ids=lambda v: str(v))
def test_terms_agree_with_reference_seeded(seed, bidx):
    rng = random.Random(seed)
    _check_term_pair(
        _term_spec(rng), _term_spec(rng), _BINDING_SPECS[bidx]
    )


@pytest.mark.parametrize("seed,bidx", _SEED_CASES[30:], ids=lambda v: str(v))
def test_formulas_agree_with_reference_seeded(seed, bidx):
    rng = random.Random(seed)
    _check_formula_pair(
        _formula_spec(rng), _formula_spec(rng), _BINDING_SPECS[bidx]
    )


if HAVE_HYPOTHESIS:

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bidx=st.integers(min_value=0, max_value=len(_BINDING_SPECS) - 1),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_terms_agree_with_reference_hypothesis(seed, bidx):
        rng = random.Random(seed)
        _check_term_pair(
            _term_spec(rng, 4), _term_spec(rng, 4), _BINDING_SPECS[bidx]
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bidx=st.integers(min_value=0, max_value=len(_BINDING_SPECS) - 1),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_formulas_agree_with_reference_hypothesis(seed, bidx):
        rng = random.Random(seed)
        _check_formula_pair(
            _formula_spec(rng, 4), _formula_spec(rng, 4), _BINDING_SPECS[bidx]
        )


# ---------------------------------------------------------------------------
# Identity: construction, literals/clauses, pickle, copy.
# ---------------------------------------------------------------------------


def test_separately_built_nodes_are_identical():
    x = LVar("x")
    t1 = App("f", (App("g", (x, IntConst(3))), App("a")))
    t2 = App("f", (App("g", (LVar("x"), IntConst(3))), App("a")))
    assert t1 is t2
    f1 = Forall(("x",), Implies(Pred("P", (x,)), Eq(t1, x)))
    f2 = Forall(("x",), Implies(Pred("P", (LVar("x"),)), Eq(t2, LVar("x"))))
    assert f1 is f2
    c1 = Clause((Literal(True, Eq(t1, x)),), origin="ax")
    c2 = Clause([Literal(True, Eq(t2, LVar("x")))], origin="ax")
    assert c1 is c2
    # Distinct origins / triggers / signs stay distinct.
    assert c1 is not Clause(c1.literals, origin="other")
    assert Literal(True, Eq(t1, x)) is not Literal(False, Eq(t1, x))


def test_nodes_are_immutable():
    t = App("f", (App("a"),))
    with pytest.raises(AttributeError):
        t.fn = "g"
    with pytest.raises(AttributeError):
        del t.args
    lit = Literal(True, Pred("P"))
    with pytest.raises(AttributeError):
        lit.positive = False


def test_pickle_roundtrip_returns_the_same_objects():
    goal = Implies(
        Pred("P", (App("f", (LVar("x"), IntConst(2))),)),
        Exists(("y",), Eq(LVar("y"), App("a"))),
    )
    clause = clausify(Forall(("x",), Iff(Pred("Q", (LVar("x"),)), Top())))[0]
    for node in [goal, clause, App("f", (IntConst(1),)), Literal(False, Pred("P"))]:
        back = pickle.loads(pickle.dumps(node))
        assert back is node, f"pickle round-trip broke identity for {node!r}"
    # copy/deepcopy respect interning too (a deepcopy that duplicated nodes
    # would silently disable every identity fast path downstream).
    assert copy.copy(goal) is goal
    assert copy.deepcopy(goal) is goal


def test_unpickling_in_fresh_table_still_equal():
    """Pickle carries structure, not identity: bytes produced here rebuild
    through the constructors, so cross-process round-trips (the parallel
    checker's workers) re-intern into whatever table they land in."""
    t = App("f", (App("g", (LVar("v"),)), IntConst(7)))
    cls, args = t.__reduce__()
    rebuilt = cls(*args)
    assert rebuilt is t


def test_obligations_survive_parallel_pickling():
    """End-to-end: a parallel (jobs=2) verification round-trips obligations
    and reports through pickle and must agree with the serial checker."""
    opt = next(o for o in ALL_OPTIMIZATIONS if o.name == "constFold")
    cfg = ProverConfig(timeout_s=60.0)
    serial = SoundnessChecker(config=cfg).check_optimization(opt)
    parallel = SoundnessChecker(
        config=cfg, options=VerifyOptions(jobs=2)
    ).check_optimization(opt)
    assert serial.canonical() == parallel.canonical()
    assert parallel.sound


def test_intern_table_is_weak():
    I.clear_memos()
    gc.collect()
    before = I.table_size()
    probes = [App("gc_probe", (IntConst(i),)) for i in range(1000)]
    assert I.table_size() >= before + 1000
    del probes
    I.clear_memos()
    gc.collect()
    assert I.table_size() < before + 100, "dead nodes must leave the table"


# ---------------------------------------------------------------------------
# Memoized pipeline == unmemoized pipeline, byte for byte.
# ---------------------------------------------------------------------------

_FAST_NAMES = ("constProp", "copyProp", "constFold", "branchFold", "selfAssignRemoval")


def _report_fingerprint(report):
    ctxs = tuple(
        (r.obligation, r.proved, tuple(r.context)) for r in report.results
    )
    for dep in report.dependencies:
        ctxs += tuple(
            (r.obligation, r.proved, tuple(r.context)) for r in dep.results
        )
    return report.canonical(), ctxs


def _check_memo_identity(opt):
    fps = {}
    for label, memo_on in (("memo", True), ("structural", False)):
        checker = SoundnessChecker(config=ProverConfig(timeout_s=120.0))
        if memo_on:
            fps[label] = _report_fingerprint(checker.check_optimization(opt))
        else:
            with I.structural_reference():
                fps[label] = _report_fingerprint(checker.check_optimization(opt))
    assert fps["memo"] == fps["structural"], f"{opt.name}: memoization changed output"


@pytest.mark.parametrize(
    "opt",
    [o for o in ALL_OPTIMIZATIONS if o.name in _FAST_NAMES],
    ids=lambda o: o.name,
)
def test_memo_on_off_identical_fast(opt):
    _check_memo_identity(opt)


@pytest.mark.slow
@pytest.mark.parametrize("opt", ALL_OPTIMIZATIONS, ids=lambda o: o.name)
def test_memo_on_off_identical_full_suite(opt):
    _check_memo_identity(opt)


def test_memo_on_off_round_instances_identical():
    """Round-by-round instance logs must not feel the memos either."""
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
    out = {}
    for label, memo_on in (("memo", True), ("structural", False)):
        def run():
            prover = Prover(
                list(axioms),
                config=ProverConfig(timeout_s=20.0, record_round_instances=True),
            )
            result = prover.prove(goal)
            rounds = [sorted(r) for r in (result.round_instances or [])]
            return (result.status, tuple(result.context), rounds)

        if memo_on:
            out[label] = run()
        else:
            with I.structural_reference():
                out[label] = run()
    assert out["memo"] == out["structural"]
    assert out["memo"][0].name == "PROVED"


# ---------------------------------------------------------------------------
# Observability.
# ---------------------------------------------------------------------------


def test_prover_stats_expose_intern_metrics():
    x = LVar("x")
    axioms = [Forall(("x",), Implies(Pred("P", (x,)), Pred("Q", (x,))))]
    goal = Implies(Pred("P", (App("a"),)), Pred("Q", (App("a"),)))
    prover = Prover(axioms, config=ProverConfig(timeout_s=10.0))
    result = prover.prove(goal)
    assert result.proved
    stats = result.stats
    assert stats.intern_table > 0
    assert stats.intern_hits + stats.intern_misses > 0
    table = stats.table()
    for label in ("intern table size", "intern hit rate", "subst memo hit rate",
                  "pipeline memo hit rate", "free-vars cache hits"):
        assert label in table
    # merge() accumulates the new counters like the old ones.
    other = type(stats)(intern_hits=3, intern_misses=1, intern_table=7)
    before = stats.intern_hits
    stats.merge(other)
    assert stats.intern_hits == before + 3
    assert stats.intern_table >= 7


def test_global_intern_summary_renders():
    line = I.STATS.summary()
    assert "intern table" in line and "live nodes" in line


# ---------------------------------------------------------------------------
# Concurrent interning
# ---------------------------------------------------------------------------


def _race(worker, threads):
    """Run ``worker`` on ``threads`` threads at once, switching between them
    as often as the interpreter allows; returns their results in order."""
    import sys
    import threading

    results = [None] * threads
    barrier = threading.Barrier(threads, timeout=60)

    def run(slot):
        barrier.wait()
        results[slot] = worker()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(slot,)) for slot in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in pool), "a racing thread hung"
    finally:
        sys.setswitchinterval(previous)
    assert all(result is not None for result in results), "a racing thread failed"
    return results


def test_threads_building_the_same_new_nodes_share_them():
    # The threads construct the same never-seen terms in the same order,
    # so they keep missing on the same key at the same moment.
    def build():
        return [App("raced", (IntConst(i),)) for i in range(50_000)]

    first, *others = _race(build, threads=4)
    for other in others:
        assert sum(a is not b for a, b in zip(first, other)) == 0


def test_concurrent_suite_obligation_keys_match_a_serial_run():
    # obligation_key emits back-references by node identity, so a second
    # object for one structure changes the key (and a warm cache misses).
    def keys():
        I.clear_memos()
        return SoundnessChecker().suite_obligation_keys(optimizations=ALL_OPTIMIZATIONS)

    expected = keys()
    assert expected

    def loop():
        return [keys() for _ in range(10)]

    for runs in _race(loop, threads=2):
        assert all(run == expected for run in runs)
