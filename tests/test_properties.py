"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

* printer/parser round-trip on arbitrary generated programs;
* interpreter determinism and fuel monotonicity;
* the random program generator only produces valid programs;
* E-graph: asserted equalities are reflected, pop restores state exactly,
  congruence is a congruence;
* clausification preserves ground (un)satisfiability on small formulas via
  a brute-force propositional oracle;
* pattern matching: match-then-instantiate is the identity.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.il.interp import ExecError, Interpreter, OutOfFuel
from repro.il.parser import parse_program
from repro.il.printer import program_to_str
from repro.il.program import Program
from repro.logic.formulas import (
    And,
    Clause,
    Eq,
    Implies,
    Literal,
    Not,
    Or,
    Pred,
    clausify,
)
from repro.logic.terms import App, IntConst, LVar, mk, subst, free_vars
from repro.prover.kernels import FlatEGraph


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

program_configs = st.builds(
    GeneratorConfig,
    num_vars=st.integers(1, 4),
    num_stmts=st.integers(1, 14),
    num_branches=st.integers(0, 3),
    allow_pointers=st.booleans(),
)


@st.composite
def programs(draw):
    config = draw(program_configs)
    seed = draw(st.integers(0, 10_000))
    generator = ProgramGenerator(config, seed=seed)
    return Program((generator.gen_proc(),))


class TestProgramProperties:
    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_generator_produces_valid_programs(self, program):
        program.validate()

    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_roundtrip(self, program):
        assert parse_program(program_to_str(program)) == program

    @given(programs(), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_interpreter_deterministic(self, program, arg):
        def run():
            try:
                return ("value", Interpreter(program).run(arg, fuel=20_000))
            except ExecError as e:
                return ("stuck", None)
            except OutOfFuel:
                return ("fuel", None)

        assert run() == run()

    @given(programs(), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_fuel_monotone(self, program, arg):
        # If a run finishes with little fuel, more fuel gives the same value.
        interp = Interpreter(program)
        try:
            small = interp.run(arg, fuel=5_000)
        except (ExecError, OutOfFuel):
            return
        assert interp.run(arg, fuel=50_000) == small

    @given(programs(), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_trace_steps_are_consistent(self, program, arg):
        interp = Interpreter(program)
        trace = interp.trace(arg, fuel=100)
        for before, after in zip(trace, trace[1:]):
            result = interp.step(before)
            assert result.state == after  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# E-graph
# ---------------------------------------------------------------------------

_consts = [App(name) for name in "abcdef"]
terms = st.recursive(
    st.sampled_from(_consts) | st.integers(0, 3).map(IntConst),
    lambda inner: st.builds(lambda f, a: App(f, (a,)), st.sampled_from(["f", "g"]), inner),
    max_leaves=4,
)

equations = st.lists(st.tuples(terms, terms), min_size=0, max_size=8)


class TestEGraphProperties:
    @given(equations)
    @settings(max_examples=80, deadline=None)
    def test_asserted_equalities_hold(self, eqs):
        e = FlatEGraph()
        asserted = []
        for lhs, rhs in eqs:
            if e.assert_eq(lhs, rhs):
                asserted.append((lhs, rhs))
            else:
                break
        for lhs, rhs in asserted:
            assert e.are_equal(lhs, rhs)

    @given(equations, equations)
    @settings(max_examples=60, deadline=None)
    def test_pop_restores_equalities(self, base, extra):
        e = FlatEGraph()
        for lhs, rhs in base:
            if not e.assert_eq(lhs, rhs):
                return
        snapshot = [(l, r, e.are_equal(l, r)) for l, r in _pairs(base)]
        e.push()
        for lhs, rhs in extra:
            if not e.assert_eq(lhs, rhs):
                break
        e.pop()
        for lhs, rhs, was_equal in snapshot:
            assert e.are_equal(lhs, rhs) == was_equal

    @given(equations, terms, terms)
    @settings(max_examples=60, deadline=None)
    def test_congruence_property(self, eqs, t1, t2):
        e = FlatEGraph()
        for lhs, rhs in eqs:
            if not e.assert_eq(lhs, rhs):
                return
        if e.are_equal(t1, t2):
            assert e.are_equal(App("f", (t1,)), App("f", (t2,)))

    @given(equations)
    @settings(max_examples=60, deadline=None)
    def test_equality_is_symmetric_transitive(self, eqs):
        e = FlatEGraph()
        for lhs, rhs in eqs:
            if not e.assert_eq(lhs, rhs):
                return
        pairs = _pairs(eqs)
        for a, b in pairs:
            assert e.are_equal(a, b) == e.are_equal(b, a)
        for a, b in pairs:
            for c, d in pairs:
                if e.are_equal(a, b) and e.are_equal(b, c):
                    assert e.are_equal(a, c)


def _pairs(eqs):
    seen = []
    for lhs, rhs in eqs:
        seen.append(lhs)
        seen.append(rhs)
    return list(itertools.combinations(seen[:8], 2))


# ---------------------------------------------------------------------------
# Clausification vs. a brute-force propositional oracle
# ---------------------------------------------------------------------------

_atoms = [Pred(name) for name in "pqr"]

formulas = st.recursive(
    st.sampled_from(_atoms),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda ab: And(ab)),
        st.tuples(inner, inner).map(lambda ab: Or(ab)),
        st.tuples(inner, inner).map(lambda ab: Implies(*ab)),
    ),
    max_leaves=6,
)


def _eval_formula(f, assignment):
    if isinstance(f, Pred):
        return assignment[f.name]
    if isinstance(f, Not):
        return not _eval_formula(f.body, assignment)
    if isinstance(f, And):
        return all(_eval_formula(p, assignment) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval_formula(p, assignment) for p in f.parts)
    if isinstance(f, Implies):
        return (not _eval_formula(f.hyp, assignment)) or _eval_formula(f.conc, assignment)
    raise TypeError(f)


def _eval_clauses(clauses, assignment):
    for clause in clauses:
        ok = False
        for lit in clause.literals:
            value = assignment[lit.atom.name]
            if lit.positive == value:
                ok = True
                break
        if not ok:
            return False
    return True


class TestClausification:
    @given(formulas)
    @settings(max_examples=120, deadline=None)
    def test_cnf_equivalent_on_propositional_formulas(self, f):
        clauses = clausify(f)
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip("pqr", bits))
            assert _eval_formula(f, assignment) == _eval_clauses(clauses, assignment)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class TestTermProperties:
    @given(terms)
    @settings(max_examples=60, deadline=None)
    def test_subst_identity_on_ground(self, t):
        assert subst(t, {"x": IntConst(0)}) == t

    @given(terms)
    @settings(max_examples=60, deadline=None)
    def test_ground_terms_have_no_free_vars(self, t):
        assert free_vars(t) == frozenset()
