"""Tests for the prover's search heuristics: split priorities, seed
clauses, nosplit tagging, phase selection, relevance-guarded
instantiation, and the linear form of injectivity clauses — the machinery
that makes the Cobalt obligations tractable."""

import pytest

from repro.logic.formulas import (
    And,
    Clause,
    Eq,
    Forall,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    Pred,
    clausify,
)
from repro.logic.terms import App, IntConst, LVar, mk
from repro.prover import Prover, ProverConfig
from repro.prover import core
from repro.prover.core import (
    _is_kind_literal,
    default_split_priority,
    linear_injectivity,
)
from repro.prover.kernels import FlatEGraph
from repro.prover.kernels.flat import INVERSE_PREFIX, inverse_symbol

from tests.oracle_scan import checked_scan

a, b, c = App("a"), App("b"), App("c")
x, y = LVar("x"), LVar("y")
K1, K2 = App("K_ONE"), App("K_TWO")


class TestKindLiterals:
    def test_kind_tag_detected(self):
        lit = Literal(True, Eq(mk("stmtKind", a), K1))
        assert _is_kind_literal(lit)

    def test_plain_equality_not_kind(self):
        lit = Literal(True, Eq(a, b))
        assert not _is_kind_literal(lit)

    def test_predicate_not_kind(self):
        lit = Literal(True, Pred("p", (a,)))
        assert not _is_kind_literal(lit)


class TestSplitPriority:
    def test_seed_clause_prioritized(self):
        clause = Clause((Literal(True, Eq(a, b)),), origin="case-split-seed")
        lit = clause.literals[0]
        assert default_split_priority(lit, clause) == 2

    def test_nosplit_clause_demoted(self):
        clause = Clause((Literal(True, Eq(a, b)),), origin="wf-env [nosplit]")
        lit = clause.literals[0]
        assert default_split_priority(lit, clause) == -1

    def test_kind_literal_demoted(self):
        clause = Clause((Literal(False, Eq(mk("exprKind", a), K1)),), origin="axiom#1")
        lit = clause.literals[0]
        assert default_split_priority(lit, clause) == -1


class TestSeededCaseSplits:
    def test_seeded_exhaustiveness_enables_proof(self):
        # p follows from each kind, but only a seeded exhaustiveness makes
        # the case analysis available (kind clauses are never split).
        axioms = [
            Forall(("x",), Implies(Eq(mk("kindOf", x), K1), Pred("p", (x,))),
                   ((mk("kindOf", x),),)),
            Forall(("x",), Implies(Eq(mk("kindOf", x), K2), Pred("p", (x,))),
                   ((mk("kindOf", x),),)),
        ]
        prover = Prover(axioms, constructors={"K_ONE", "K_TWO"})
        goal = Pred("p", (a,))
        # Without the seed: unknown (the prover refuses to invent the split).
        result = prover.prove(goal, extra_axioms=[Eq(mk("kindOf", a), mk("kindOf", a))])
        assert not result.proved
        # With the seeded exhaustiveness: proved.
        seed = clausify(
            Or((Eq(mk("kindOf", a), K1), Eq(mk("kindOf", a), K2))),
            origin="case-split-seed",
        )
        assert prover.prove(goal, extra_axioms=seed).proved

    def test_nosplit_axiom_still_propagates(self):
        # A nosplit clause is used by unit propagation once one literal is
        # decided by other facts.
        inj = Clause(
            (
                Literal(True, Eq(x, y)),
                Literal(False, Eq(mk("loc", x), mk("loc", y))),
            ),
            triggers=((mk("loc", x), mk("loc", y)),),
            origin="inj [nosplit]",
        )
        prover = Prover([inj])
        goal = Implies(
            Not(Eq(a, b)),
            Not(Eq(mk("loc", a), mk("loc", b))),
        )
        assert prover.prove(goal).proved


class TestRelevanceGuard:
    def test_kind_conditional_instances_deferred_until_kind_known(self):
        # value axiom: kindOf(t)=K1 -> val(t)=1.  With kindOf(a) unknown the
        # instance is deferred; stating the kind admits it.
        ax = Forall(
            ("x",),
            Implies(Eq(mk("kindOf", x), K1), Eq(mk("val", x), IntConst(1))),
            ((mk("val", x),),),
        )
        prover = Prover([ax], constructors={"K_ONE", "K_TWO"})
        goal_without = Eq(mk("val", a), IntConst(1))
        assert not prover.prove(goal_without).proved
        goal_with = Implies(Eq(mk("kindOf", a), K1), Eq(mk("val", a), IntConst(1)))
        assert prover.prove(goal_with).proved

    def test_positive_kind_facts_not_deferred(self):
        # Axioms that *define* kinds (positive unit conclusions) must flow.
        ax = Forall(("x",), Eq(mk("kindOf", mk("mkone", x)), K1), ((mk("mkone", x),),))
        use = Forall(
            ("x",),
            Implies(Eq(mk("kindOf", x), K1), Pred("ok", (x,))),
            ((Pred("ok", (x,)),),),
        )
        prover = Prover([ax, use], constructors={"K_ONE"})
        goal = Pred("ok", (mk("mkone", a),))
        assert prover.prove(goal).proved


class TestPhaseSelection:
    def test_equality_split_tries_disequal_first(self):
        # Regardless of phase order the result must be correct; this guards
        # the phase logic against sign bugs by needing both branches.
        m = App("m0")
        axioms = [
            Forall(
                ("m", "k", "v"),
                Eq(mk("select", mk("update", LVar("m"), LVar("k"), LVar("v")), LVar("k")), LVar("v")),
                ((mk("update", LVar("m"), LVar("k"), LVar("v")),),),
            ),
            Forall(
                ("m", "k1", "v", "k2"),
                Or(
                    (
                        Eq(LVar("k1"), LVar("k2")),
                        Eq(
                            mk("select", mk("update", LVar("m"), LVar("k1"), LVar("v")), LVar("k2")),
                            mk("select", LVar("m"), LVar("k2")),
                        ),
                    )
                ),
                ((mk("select", mk("update", LVar("m"), LVar("k1"), LVar("v")), LVar("k2")),),),
            ),
        ]
        prover = Prover(axioms)
        # select(update(m,a,1), b) is 1 or select(m,b) — either way, if
        # select(m,b)=1 too, the read is 1 in both branches.
        goal = Implies(
            Eq(mk("select", m, b), IntConst(1)),
            Eq(mk("select", mk("update", m, a, IntConst(1)), b), IntConst(1)),
        )
        assert prover.prove(goal).proved


class TestResourceLimits:
    def test_timeout_reports_unknown(self):
        # An instantiation treadmill: f(x) ~> p(f(f(x))) never terminates.
        ax = Forall(
            ("x",), Pred("p", (mk("f", mk("f", x)),)), ((mk("f", x),),)
        )
        prover = Prover([ax], config=ProverConfig(timeout_s=0.3, max_rounds=10_000))
        result = prover.prove(Pred("q"), extra_axioms=[Pred("p", (mk("f", a),))])
        assert not result.proved
        assert result.stats.elapsed_s < 5

    def test_instance_budget(self):
        ax = Forall(("x",), Pred("p", (mk("f", mk("f", x)),)), ((mk("f", x),),))
        prover = Prover([ax], config=ProverConfig(max_instances=50, timeout_s=10))
        result = prover.prove(Pred("q"), extra_axioms=[Pred("p", (mk("f", a),))])
        assert not result.proved
        assert result.stats.instances <= 50


class TestOriginTuples:
    def test_axiom_with_origin_tuple(self):
        prover = Prover([("my-axiom", Pred("p"))])
        assert prover.prove(Pred("p")).proved
        assert any("my-axiom" in c.origin for c in prover._base_clauses)


def _injectivity(lhs, rhs, eq=(x, y), extra=()):
    """``eq[0] = eq[1] \\/ lhs != rhs`` (plus ``extra`` literals)."""
    return Clause(
        (Literal(True, Eq(*eq)), Literal(False, Eq(lhs, rhs))) + tuple(extra),
        triggers=((lhs, rhs),),
        origin="inj [nosplit]",
    )


class TestLinearInjectivity:
    """``x = y \\/ f(c,x) != f(c,y)`` becomes ``inv(c, f(c,x)) = x``
    (docs/PROVER.md §3, docs/THEOREMS.md W1)."""

    def test_rewrite_fires_on_the_injectivity_shape(self):
        clause = _injectivity(mk("f", c, x), mk("f", c, y))
        out = linear_injectivity(clause)
        image = mk("f", c, x)
        inverse = App(inverse_symbol("f", 1), (c, image))
        assert out.literals == (Literal(True, Eq(inverse, x)),)
        assert out.triggers == ((image,),)
        assert out.origin == clause.origin

    def test_rewrite_fires_in_either_orientation_and_position(self):
        clause = _injectivity(mk("f", y, c), mk("f", x, c), eq=(y, x))
        out = linear_injectivity(clause)
        [lit] = out.literals
        assert lit.atom.lhs.fn == inverse_symbol("f", 0)
        assert lit.atom.lhs.args == (c, mk("f", y, c))
        assert lit.atom.rhs == y

    def test_w1_is_linear_in_the_base_clauses(self):
        from repro.verify.encode import CONSTRUCTORS, all_axioms

        prover = Prover(all_axioms(), constructors=CONSTRUCTORS)
        [w1] = [
            cl for cl in prover._base_clauses
            if cl.origin == "wf-env-injective [nosplit]"
        ]
        [lit] = w1.literals
        assert lit.positive
        assert lit.atom.lhs.fn == inverse_symbol("select", 1)
        assert lit.atom.rhs == LVar("x")
        assert w1.triggers == ((lit.atom.lhs.args[-1],),)

    @pytest.mark.parametrize(
        "clause",
        [
            _injectivity(mk("f", a, x), mk("f", b, y)),
            _injectivity(mk("f", c, x), mk("f", c, y),
                         extra=(Literal(True, Pred("p", (x,))),)),
            _injectivity(mk("f", c, x), mk("f", c, x), eq=(x, x)),
            _injectivity(mk("f", c, x), mk("f", c, x)),
            _injectivity(mk("f", x, x), mk("f", x, y)),
            _injectivity(mk("f", c, x), mk("g", c, y)),
            _injectivity(mk("f", c, x), mk("f", c, y), eq=(x, a)),
        ],
        ids=["different-contexts", "third-literal", "same-variable",
             "same-variable-images", "variable-in-context", "different-heads",
             "ground-side"],
    )
    def test_near_misses_are_left_alone(self, clause):
        assert linear_injectivity(clause) is clause

    def test_contrapositive_congruence_in_the_kernel(self):
        fa, fb = mk("f", c, a), mk("f", c, b)
        inv = inverse_symbol("f", 1)
        eg = FlatEGraph()
        na, nb = eg.add_term(fa), eg.add_term(fb)
        assert eg.relation_ids(na, nb) == -1
        eg.push()
        assert eg.assert_eq(App(inv, (c, fa)), a)
        assert eg.assert_eq(App(inv, (c, fb)), b)
        assert eg.relation_ids(na, nb) == -1
        assert eg.assert_diseq(a, b)
        assert eg.relation_ids(na, nb) == 0
        # Different contexts decide nothing.
        ga, gb = mk("f", a, a), mk("f", b, b)
        assert eg.assert_eq(App(inv, (a, ga)), a)
        assert eg.assert_eq(App(inv, (b, gb)), b)
        assert eg.relation_ids(eg.add_term(ga), eg.add_term(gb)) == -1
        eg.pop()
        assert eg.relation_ids(na, nb) == -1
        assert not any(eg.inv_uses)

    def test_inverse_application_posts_an_event_for_its_image(self):
        fa = mk("f", c, a)
        eg = FlatEGraph()
        root = eg.find(eg.add_term(fa))
        mark = len(eg.events)
        eg.add_term(App(inverse_symbol("f", 1), (c, fa)))
        assert root in eg.events[mark:]

    @staticmethod
    def _cases_clauses(lhs=None, rhs=None):
        """``lhs = rhs \\/ p`` and ``lhs = rhs \\/ ~p`` (default ``f(c,a)``
        and ``f(c,b)``).  Both are nosplit, so only an evaluation of
        ``lhs = rhs`` can close the branch: without contrapositive
        congruence the search saturates and answers unknown."""
        lhs = mk("f", c, a) if lhs is None else lhs
        rhs = mk("f", c, b) if rhs is None else rhs
        return [
            Clause((Literal(True, Eq(lhs, rhs)), Literal(True, Pred("p"))),
                   origin="cases [nosplit]"),
            Clause((Literal(True, Eq(lhs, rhs)), Literal(False, Pred("p"))),
                   origin="cases [nosplit]"),
        ]

    @staticmethod
    def _in_round_two(fact):
        """Axioms and a ground clause that assert ``fact`` (over ``x``,
        bound to ``a``) only in the second instantiation round — after the
        first round's inverse units were asserted and the clauses over
        them re-cached: round 1 creates ``k(a)`` from ``s(a)``, round 2
        turns ``k(a) != d`` into ``fact``."""
        d = App("d")
        axioms = [
            Forall(("x",), Not(Eq(mk("k", x), d)), ((mk("s", x),),)),
            Forall(("x",), Or((Eq(mk("k", x), d), fact)), ((mk("k", x),),)),
        ]
        seed = Pred("r", (mk("s", a), mk("f", c, a)))
        terms = Clause((Literal(True, seed), Literal(False, seed)),
                       origin="terms [nosplit]")
        return axioms, terms

    def test_disequal_arguments_decide_the_images_without_a_decision(self):
        prover = Prover([_injectivity(mk("f", c, x), mk("f", c, y))])
        result = prover.prove(Eq(a, b), extra_axioms=self._cases_clauses())
        assert result.proved
        assert result.stats.decisions == 0

    def test_equal_images_of_disequal_arguments_conflict(self):
        prover = Prover([_injectivity(mk("f", c, x), mk("f", c, y))])
        goal = Implies(And((Not(Eq(a, b)), Eq(mk("f", c, a), mk("f", c, b)))),
                       Pred("q"))
        result = prover.prove(goal)
        assert result.proved
        assert result.stats.decisions == 0

    def test_inverse_created_after_caching_wakes_the_clause(self):
        """The clauses are evaluated (and cached) before the round that
        admits the inverse units; creating the inverse applications must
        wake them, or the checked scan reports a missed unit."""
        prover = Prover([_injectivity(mk("f", c, x), mk("f", c, y))])
        with checked_scan():
            result = prover.prove(Eq(a, b), extra_axioms=self._cases_clauses())
        assert result.proved

    def test_merge_that_brings_inverses_wakes_the_surviving_class(self):
        """``g`` survives its merge with ``f(c,a)`` (equal ranks, ``g`` is
        the left side), so only the absorbed root is logged as merged — but
        ``g``'s class gains the inverse application over ``f(c,a)``, which
        decides ``g = f(c,b)``: the surviving root must be woken too."""
        g = App("g")
        axioms, terms = self._in_round_two(Eq(g, mk("f", c, x)))
        prover = Prover([_injectivity(mk("f", c, x), mk("f", c, y))] + axioms)
        cases = self._cases_clauses(g, mk("f", c, b)) + [terms]
        with checked_scan():
            assert prover.prove(Eq(a, b), extra_axioms=cases).proved

    def test_disequality_between_inverse_classes_wakes_the_clause(self):
        """The clauses over ``f(c,a) = f(c,b)`` are cached with both
        inverse units asserted but ``a``/``b`` undetermined; the later
        ``a != b`` touches only the classes of ``a`` and ``b`` — the
        inverse applications' classes, which the clauses must watch."""
        axioms, terms = self._in_round_two(Not(Eq(a, b)))
        prover = Prover([_injectivity(mk("f", c, x), mk("f", c, y))] + axioms)
        cases = self._cases_clauses() + [terms]
        with checked_scan():
            assert prover.prove(Pred("q"), extra_axioms=cases).proved

    def test_merging_contexts_wakes_the_clause(self):
        """``f(c1,a) = f(c2,b)`` with ``a != b`` is decided once ``c1 = c2``
        — a merge of the inverse applications' context classes, which the
        clauses must watch too."""
        c1, c2, z = App("c1"), App("c2"), LVar("z")
        axioms, terms = self._in_round_two(Eq(c1, c2))
        inj = _injectivity(mk("f", x, z), mk("f", x, y), eq=(z, y))
        prover = Prover([inj] + axioms)
        cases = self._cases_clauses(mk("f", c1, a), mk("f", c2, b)) + [terms]
        with checked_scan():
            assert prover.prove(Eq(a, b), extra_axioms=cases).proved

    def test_dead_assign_elim_admits_no_pairwise_w1_instance(self, monkeypatch):
        from repro.cobalt.labels import standard_registry
        from repro.opts import ALL_OPTIMIZATIONS
        from repro.verify.checker import discharge_obligation
        from repro.verify.encode import CONSTRUCTORS, all_axioms
        from repro.verify.obligations import ObligationBuilder

        admitted = []
        append_ground = core._Search._append_ground

        def recording(search, clause):
            admitted.append(clause)
            return append_ground(search, clause)

        monkeypatch.setattr(core._Search, "_append_ground", recording)
        [opt] = [o for o in ALL_OPTIMIZATIONS if o.name == "deadAssignElim"]
        prover = Prover(all_axioms(), constructors=CONSTRUCTORS,
                        config=ProverConfig(timeout_s=120.0))
        builder = ObligationBuilder(standard_registry(), {})
        for ob in builder.backward_obligations(opt.pattern):
            assert discharge_obligation(prover, opt.name, ob).proved
        w1 = [cl for cl in admitted if "wf-env-injective" in cl.origin]
        assert w1, "no environment cell was ever instantiated"
        for cl in w1:
            [lit] = cl.literals
            assert lit.positive and lit.atom.lhs.fn.startswith(INVERSE_PREFIX)
