"""Tests for the guard formula language and the label library."""

import pytest

from repro.il.ast import Const, Var
from repro.il.cfg import Cfg
from repro.il.parser import parse_program
from repro.cobalt import guards
from repro.cobalt.guards import (
    GAnd,
    GCase,
    GEq,
    GFalse,
    GLabel,
    GNot,
    GOr,
    GTrue,
    check,
    generate,
    guard_pattern_vars,
)
from repro.cobalt.labels import (
    CaseLabel,
    LabelError,
    LabelRegistry,
    Labeling,
    NodeCtx,
    standard_registry,
)
from repro.cobalt.patterns import ConstPat, ExprPat, VarPat, parse_pattern_stmt


@pytest.fixture()
def registry():
    return standard_registry()


def ctx_for(text, index, registry, labeling=None):
    proc = parse_program(text).proc("main")
    return NodeCtx(proc, Cfg.build(proc), index, registry, labeling or Labeling())


PROGRAM = """
main(n) {
  decl a;
  decl p;
  a := 5;
  p := &a;
  *p := n;
  a := foo(n);
  if a goto 7 else 7;
  return a;
}
foo(x) {
  return x;
}
"""


class TestBuiltinLabels:
    def test_stmt_label_check(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        assert check(guard, {"Y": Var("a"), "C": Const(5)}, ctx)
        assert not check(guard, {"Y": Var("a"), "C": Const(6)}, ctx)

    def test_syntactic_def(self, registry):
        label = registry.lookup("syntacticDef")
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 0, registry))  # decl a
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 2, registry))  # a := 5
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 5, registry))  # call dest
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 3, registry))
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 4, registry))  # *p := n

    def test_may_def_conservative(self, registry):
        label = registry.lookup("mayDef")
        # Pointer stores and calls may define anything.
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 4, registry))
        assert label.eval((Var("n"),), ctx_for(PROGRAM, 4, registry))
        assert label.eval((Var("n"),), ctx_for(PROGRAM, 5, registry))
        # A branch defines nothing.
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 6, registry))

    def test_may_use(self, registry):
        label = registry.lookup("mayUse")
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 6, registry))  # if a
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 7, registry))  # return a
        assert not label.eval((Var("p"),), ctx_for(PROGRAM, 6, registry))
        # *p := n uses p and n.
        assert label.eval((Var("p"),), ctx_for(PROGRAM, 4, registry))
        assert label.eval((Var("n"),), ctx_for(PROGRAM, 4, registry))
        # Calls may read anything (conservatively).
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 5, registry))

    def test_may_use_pointer_load(self, registry):
        program = """
        main(n) {
          decl p;
          decl x;
          p := new;
          x := *p;
          return x;
        }
        """
        label = registry.lookup("mayUse")
        # A load may read any variable's cell.
        assert label.eval((Var("n"),), ctx_for(program, 3, registry))

    def test_unchanged(self, registry):
        from repro.il.ast import BinOp

        e = BinOp("+", Var("a"), Var("n"))
        label = registry.lookup("unchanged")
        assert not label.eval((e,), ctx_for(PROGRAM, 2, registry))  # a := 5 defines a
        assert not label.eval((e,), ctx_for(PROGRAM, 4, registry))  # pointer store
        assert label.eval((e,), ctx_for(PROGRAM, 6, registry))  # branch

    def test_unchanged_impure_expr(self, registry):
        from repro.il.ast import Deref

        e = Deref(Var("p"))
        label = registry.lookup("unchanged")
        # Any store-writing statement may change *p.
        assert not label.eval((e,), ctx_for(PROGRAM, 2, registry))
        assert label.eval((e,), ctx_for(PROGRAM, 6, registry))

    def test_not_tainted_consults_labeling(self, registry):
        labeling = Labeling()
        labeling.add(2, "notTainted", (Var("a"),))
        label = registry.lookup("notTainted")
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 2, registry, labeling))
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 3, registry, labeling))

    def test_cell_unchanged(self, registry):
        labeling = Labeling()
        labeling.add(2, "notTainted", (Var("a"),))
        label = registry.lookup("cellUnchanged")
        # a := 5 with a notTainted cannot change *w.
        assert label.eval((Var("w"),), ctx_for(PROGRAM, 2, registry, labeling))
        # Without the taintedness fact it may.
        assert not label.eval((Var("w"),), ctx_for(PROGRAM, 2, registry))
        # Pointer stores always may.
        assert not label.eval((Var("w"),), ctx_for(PROGRAM, 4, registry, labeling))


class TestGuardEvaluation:
    def test_boolean_structure(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        stmt_guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        theta = {"Y": Var("a"), "C": Const(5)}
        assert check(GAnd((stmt_guard, GTrue())), theta, ctx)
        assert not check(GAnd((stmt_guard, GFalse())), theta, ctx)
        assert check(GOr((GFalse(), stmt_guard)), theta, ctx)
        assert check(GNot(GFalse()), theta, ctx)

    def test_term_equality(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        theta = {"X": Var("a"), "Y": Var("a"), "Z": Var("b")}
        assert check(GEq(VarPat("X"), VarPat("Y")), theta, ctx)
        assert not check(GEq(VarPat("X"), VarPat("Z")), theta, ctx)

    def test_case_first_match_wins(self, registry):
        case = GCase(
            (
                (parse_pattern_stmt("X := C"), GTrue()),
                (parse_pattern_stmt("X := E"), GFalse()),
            ),
            GFalse(),
        )
        assert check(case, {}, ctx_for(PROGRAM, 2, registry))  # a := 5 hits arm 1

    def test_case_default(self, registry):
        case = GCase(((parse_pattern_stmt("X := C"), GTrue()),), GLabel("stmt", (parse_pattern_stmt("return X"),)))
        assert check(case, {}, ctx_for(PROGRAM, 7, registry))

    def test_guard_pattern_vars(self):
        guard = GAnd(
            (
                GLabel("stmt", (parse_pattern_stmt("Y := C"),)),
                GNot(GLabel("mayDef", (VarPat("Y"),))),
            )
        )
        assert guard_pattern_vars(guard) == {"Y", "C"}


class TestGenerateMode:
    def test_stmt_generation(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        assert generate(guard, {}, ctx) == [{"Y": Var("a"), "C": Const(5)}]

    def test_no_match_generates_nothing(self, registry):
        ctx = ctx_for(PROGRAM, 0, registry)
        guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        assert generate(guard, {}, ctx) == []

    def test_disjunction_generates_union(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GOr(
            (
                GLabel("stmt", (parse_pattern_stmt("Y := C"),)),
                GLabel("stmt", (parse_pattern_stmt("decl Y"),)),
            )
        )
        thetas = generate(guard, {}, ctx)
        assert {"Y": Var("a"), "C": Const(5)} in thetas

    def test_enumeration_for_unbound_vars(self, registry):
        # 'return X' binds nothing; X must be enumerated and filtered by
        # the not-used condition (the DAE psi1 shape).
        ctx = ctx_for(PROGRAM, 7, registry)
        guard = GAnd(
            (
                GLabel("stmt", (parse_pattern_stmt("return ..."),)),
                GNot(GLabel("mayUse", (VarPat("X"),))),
            )
        )
        thetas = generate(guard, {}, ctx)
        names = {t["X"].name for t in thetas}
        assert "a" not in names  # return a uses a
        assert "p" in names and "n" in names

    def test_generated_bindings_satisfy_check(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GAnd(
            (
                GLabel("stmt", (parse_pattern_stmt("Y := C"),)),
                GNot(GLabel("mayUse", (VarPat("Y"),))),
            )
        )
        for theta in generate(guard, {}, ctx):
            assert check(guard, theta, ctx)


class TestRegistry:
    def test_duplicate_definition_rejected(self, registry):
        with pytest.raises(LabelError):
            registry.define(CaseLabel("mayDef", ("Y",), GTrue()))

    def test_unknown_label_rejected(self, registry):
        with pytest.raises(LabelError):
            registry.lookup("noSuchLabel")

    def test_arity_mismatch(self, registry):
        with pytest.raises(LabelError):
            registry.lookup("mayDef").eval((), ctx_for(PROGRAM, 0, registry))

    def test_copy_is_independent(self, registry):
        clone = registry.copy()
        clone.define(CaseLabel("custom", (), GTrue()))
        with pytest.raises(LabelError):
            registry.lookup("custom")


def _dae_psi1():
    """A fresh guard object (statement pattern plus enumerated variable)."""
    return GAnd(
        (
            GLabel("stmt", (parse_pattern_stmt("return ..."),)),
            GNot(GLabel("mayUse", (VarPat("X"),))),
        )
    )


def _const_guard():
    return GAnd(
        (
            GLabel("stmt", (parse_pattern_stmt("Y := C"),)),
            GNot(GOr((GLabel("mayDef", (VarPat("Y"),)), GEq(VarPat("Y"), Var("n"))))),
        )
    )


class TestCompileCaches:
    """check/generate compile each guard once, into caches keyed by
    ``id(guard)`` that pin the guard and are bounded."""

    CACHES = (guards._CHECK_CACHE, guards._GEN_CACHE)

    def test_recycled_id_never_gets_a_stale_function(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        # An entry whose pinned guard is another object is never served,
        # even when it sits under the probing guard's id.
        probe = GEq(Const(1), Const(2))
        guards._CHECK_CACHE[id(probe)] = (GTrue(), lambda theta, ctx: True)
        assert not check(probe, {}, ctx)
        # The terms are built up front, so a guard made right after another
        # is freed lands in the freed guard's memory and gets its id ...
        one, two = Const(1), Const(2)
        recycled = 0
        for _ in range(20):
            old = GEq(one, one)
            old_id = id(old)
            del old
            recycled += id(GEq(one, two)) == old_id
        assert recycled, "ids are never recycled here; the check below proves nothing"
        # ... unless the cache still pins the compiled guard: a guard of the
        # opposite truth value made after it is dropped evaluates to its own.
        for _ in range(20):
            old = GEq(one, one)
            assert check(old, {}, ctx)
            del old
            assert not check(GEq(one, two), {}, ctx)

    def test_structurally_equal_guards_agree(self, registry):
        first, second = _dae_psi1(), _dae_psi1()
        const_a, const_b = _const_guard(), _const_guard()
        assert first == second and first is not second
        proc = parse_program(PROGRAM).proc("main")
        for index in proc.indices():
            ctx = ctx_for(PROGRAM, index, registry)
            assert generate(first, {}, ctx) == generate(second, {}, ctx)
            assert generate(const_a, {}, ctx) == generate(const_b, {}, ctx)
            for theta in generate(first, {}, ctx) + [{"X": Var("a")}, {"X": Var("p")}]:
                assert check(first, theta, ctx) == check(second, theta, ctx)
            theta = {"Y": Var("a"), "C": Const(5)}
            assert check(const_a, theta, ctx) == check(const_b, theta, ctx)

    def test_caches_stay_within_their_bound(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        keep = []
        for i in range(guards._CACHE_LIMIT + 10):
            guard = GEq(Const(i), Const(i))
            keep.append(guard)  # live guards: no id is recycled meanwhile
            assert check(guard, {}, ctx)
            assert generate(guard, {}, ctx) == [{}]
            for cache in self.CACHES:
                assert len(cache) <= guards._CACHE_LIMIT
        assert all(len(cache) >= 1 for cache in self.CACHES)
