"""Optimization-independent background axioms: the IL semantics in logic.

This is the reproduction of section 5.1's "general set of axioms ... that
simply encode the semantics of programs in our intermediate language".  The
encoding follows the paper's:

* term constructors for every kind of statement, lvalue and expression
  (e.g. ``assgn(lvar(x), derefE(y))`` represents ``x := *y``);
* Simplify's built-in ``select``/``update`` map theory for environments and
  stores;
* ``evalExpr``/``evalLExpr`` evaluation functions and the component-wise
  state-stepping functions ``stepIndex``, ``stepEnv``, ``stepStore``,
  ``stepStack``, ``stepMem`` (plus the progress predicate ``stepOK``
  implementing footnote 6's elided "does not get stuck" obligations);
* conservative axioms for stepping over procedure calls, chief among them
  the paper's "primary axiom": the store after a call preserves the values
  of locations not pointed to before the call.

Statement/expression/lvalue *kinds* drive the case analysis: every semantics
axiom is conditioned on ``stmtKind(stmtAt(pi, index(eta)))`` and triggered on
the ``step*`` application itself, so E-matching instantiates exactly the
axioms an obligation needs, and DPLL performs the kind case split (the
ground exhaustiveness instances are seeded by the obligation generator).

Well-formedness axioms (environment injectivity, allocator freshness,
base-expression shape of operator arguments) state invariants of reachable
states of well-formed programs; their manual justification is part of the
meta-proof in docs/THEOREMS.md, mirroring the manual portions of the
paper's proof.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.formulas import (
    And,
    Eq,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    conj,
    disj,
)
from repro.logic.intern import memoized, register_memo
from repro.logic.terms import App, IntConst, LVar, Term, mk

# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

# Statement constructors and their kind tags / projections.
K_SKIP, K_DECL, K_ASSGN, K_NEW, K_CALL, K_IF, K_RET = (
    App("K_SKIP"),
    App("K_DECL"),
    App("K_ASSGN"),
    App("K_NEW"),
    App("K_CALL"),
    App("K_IF"),
    App("K_RET"),
)
LK_VAR, LK_DEREF = App("LK_VAR"), App("LK_DEREF")
(
    EK_VAR,
    EK_CONST,
    EK_DEREF,
    EK_ADDR,
    EK_UNOP,
    EK_BINOP,
) = (
    App("EK_VAR"),
    App("EK_CONST"),
    App("EK_DEREF"),
    App("EK_ADDR"),
    App("EK_UNOP"),
    App("EK_BINOP"),
)

STMT_KINDS = (K_SKIP, K_DECL, K_ASSGN, K_NEW, K_CALL, K_IF, K_RET)
LHS_KINDS = (LK_VAR, LK_DEREF)
EXPR_KINDS = (EK_VAR, EK_CONST, EK_DEREF, EK_ADDR, EK_UNOP, EK_BINOP)

#: Free constructors for the E-graph (distinctness + injectivity).
CONSTRUCTORS = frozenset(
    {
        "skipS",
        "declS",
        "assgn",
        "newS",
        "callS",
        "ifgoto",
        "retS",
        "lvar",
        "lderef",
        "varE",
        "constE",
        "derefE",
        "addrE",
        "unopE",
        "binopE",
        "K_SKIP",
        "K_DECL",
        "K_ASSGN",
        "K_NEW",
        "K_CALL",
        "K_IF",
        "K_RET",
        "LK_VAR",
        "LK_DEREF",
        "EK_VAR",
        "EK_CONST",
        "EK_DEREF",
        "EK_ADDR",
        "EK_UNOP",
        "EK_BINOP",
    }
)


# Term-builder helpers ---------------------------------------------------------


def skipS() -> Term:
    return App("skipS")


def declS(x: Term) -> Term:
    return mk("declS", x)


def assgn(lhs: Term, e: Term) -> Term:
    return mk("assgn", lhs, e)


def newS(x: Term) -> Term:
    return mk("newS", x)


def callS(x: Term, b: Term) -> Term:
    return mk("callS", x, b)


def ifgoto(b: Term, i: Term, j: Term) -> Term:
    return mk("ifgoto", b, i, j)


def retS(x: Term) -> Term:
    return mk("retS", x)


def lvar(x: Term) -> Term:
    return mk("lvar", x)


def lderef(x: Term) -> Term:
    return mk("lderef", x)


def varE(x: Term) -> Term:
    return mk("varE", x)


def constE(c: Term) -> Term:
    return mk("constE", c)


def derefE(x: Term) -> Term:
    return mk("derefE", x)


def addrE(x: Term) -> Term:
    return mk("addrE", x)


def unopE(op: Term, b: Term) -> Term:
    return mk("unopE", op, b)


def binopE(op: Term, b1: Term, b2: Term) -> Term:
    return mk("binopE", op, b1, b2)


# State accessors and semantic functions.


def s_index(eta: Term) -> Term:
    return mk("sIndex", eta)


def s_env(eta: Term) -> Term:
    return mk("sEnv", eta)


def s_store(eta: Term) -> Term:
    return mk("sStore", eta)


def s_stack(eta: Term) -> Term:
    return mk("sStack", eta)


def s_mem(eta: Term) -> Term:
    return mk("sMem", eta)


def stmt_at(pi: Term, i: Term) -> Term:
    return mk("stmtAt", pi, i)


def step_index(eta: Term, pi: Term) -> Term:
    return mk("stepIndex", eta, pi)


def step_env(eta: Term, pi: Term) -> Term:
    return mk("stepEnv", eta, pi)


def step_store(eta: Term, pi: Term) -> Term:
    return mk("stepStore", eta, pi)


def step_stack(eta: Term, pi: Term) -> Term:
    return mk("stepStack", eta, pi)


def step_mem(eta: Term, pi: Term) -> Term:
    return mk("stepMem", eta, pi)


def step_ok(eta: Term, pi: Term) -> Formula:
    return Pred("stepOK", (eta, pi))


def select(m: Term, k: Term) -> Term:
    return mk("select", m, k)


def update(m: Term, k: Term, v: Term) -> Term:
    return mk("update", m, k, v)


def eval_expr(eta: Term, e: Term) -> Term:
    return mk("evalExpr", eta, e)


def eval_lexpr(eta: Term, l: Term) -> Term:
    return mk("evalLExpr", eta, l)


def eval_ok(eta: Term, e: Term) -> Formula:
    return Pred("evalOK", (eta, e))


def lval_ok(eta: Term, l: Term) -> Formula:
    return Pred("lvalOK", (eta, l))


def bound_env(rho: Term, x: Term) -> Formula:
    return Pred("boundEnv", (rho, x))


def is_int_val(v: Term) -> Formula:
    return Pred("isIntVal", (v,))


def is_loc_val(v: Term) -> Formula:
    return Pred("isLocVal", (v,))


def is_true_val(v: Term) -> Formula:
    return Pred("isTrueVal", (v,))


def proper_val(v: Term) -> Formula:
    return Pred("properVal", (v,))


def apply_op(op: Term, v1: Term, v2: Term) -> Term:
    return mk("applyOp", op, v1, v2)


def apply_unop(op: Term, v: Term) -> Term:
    return mk("applyUnop", op, v)


def op_args_ok(op: Term, v1: Term, v2: Term) -> Formula:
    return Pred("opArgsOK", (op, v1, v2))


def uses_e(e: Term, x: Term) -> Formula:
    return Pred("usesE", (e, x))


def mentions_e(e: Term, x: Term) -> Formula:
    return Pred("mentionsE", (e, x))


def pure_e(e: Term) -> Formula:
    return Pred("pureE", (e,))


def stmt_uses(s: Term, x: Term) -> Formula:
    return Pred("stmtUses", (s, x))


def npt(sigma: Term, loc: Term) -> Formula:
    """``notPointedTo``: no cell of the store contains the location."""
    return Pred("NPT", (sigma, loc))


def stmt_kind(s: Term) -> Term:
    return mk("stmtKind", s)


def lhs_kind(l: Term) -> Term:
    return mk("lhsKind", l)


def expr_kind(e: Term) -> Term:
    return mk("exprKind", e)


def op_const(name: str) -> Term:
    """A concrete operator as an interned constant (``op:+`` etc.)."""
    return App(f"op:{name}")


# Projections (total functions; meaningful on the matching constructor).

_PROJECTIONS: Tuple[Tuple[str, str, int, int], ...] = (
    # (projection fn, constructor, arity, arg position)
    ("declVar", "declS", 1, 0),
    ("assgnLhs", "assgn", 2, 0),
    ("assgnRhs", "assgn", 2, 1),
    ("newVar", "newS", 1, 0),
    ("callDest", "callS", 2, 0),
    ("callArg", "callS", 2, 1),
    ("ifCond", "ifgoto", 3, 0),
    ("ifThen", "ifgoto", 3, 1),
    ("ifElse", "ifgoto", 3, 2),
    ("retVar", "retS", 1, 0),
    ("lvarId", "lvar", 1, 0),
    ("lderefId", "lderef", 1, 0),
    ("varId", "varE", 1, 0),
    ("constArg", "constE", 1, 0),
    ("derefId", "derefE", 1, 0),
    ("addrId", "addrE", 1, 0),
    ("unopOp", "unopE", 2, 0),
    ("unopArg", "unopE", 2, 1),
    ("binopOp", "binopE", 3, 0),
    ("binopL", "binopE", 3, 1),
    ("binopR", "binopE", 3, 2),
)

_KIND_OF_CTOR: Tuple[Tuple[str, str, int, Term], ...] = (
    # (kind fn, constructor, arity, kind tag)
    ("stmtKind", "skipS", 0, K_SKIP),
    ("stmtKind", "declS", 1, K_DECL),
    ("stmtKind", "assgn", 2, K_ASSGN),
    ("stmtKind", "newS", 1, K_NEW),
    ("stmtKind", "callS", 2, K_CALL),
    ("stmtKind", "ifgoto", 3, K_IF),
    ("stmtKind", "retS", 1, K_RET),
    ("lhsKind", "lvar", 1, LK_VAR),
    ("lhsKind", "lderef", 1, LK_DEREF),
    ("exprKind", "varE", 1, EK_VAR),
    ("exprKind", "constE", 1, EK_CONST),
    ("exprKind", "derefE", 1, EK_DEREF),
    ("exprKind", "addrE", 1, EK_ADDR),
    ("exprKind", "unopE", 2, EK_UNOP),
    ("exprKind", "binopE", 3, EK_BINOP),
)


def _vars(*names: str) -> Tuple[Term, ...]:
    return tuple(LVar(n) for n in names)


def structural_axioms() -> List[Formula]:
    """Projection and kind axioms for all constructors."""
    axioms: List[Formula] = []
    for proj, ctor, arity, pos in _PROJECTIONS:
        args = _vars(*(f"a{i}" for i in range(arity)))
        built = App(ctor, args)
        axioms.append(
            Forall(
                tuple(f"a{i}" for i in range(arity)),
                Eq(mk(proj, built), args[pos]),
                ((built,),),
            )
        )
    for kind_fn, ctor, arity, tag in _KIND_OF_CTOR:
        args = _vars(*(f"a{i}" for i in range(arity)))
        built = App(ctor, args)
        if arity == 0:
            axioms.append(Eq(mk(kind_fn, built), tag))
        else:
            axioms.append(
                Forall(
                    tuple(f"a{i}" for i in range(arity)),
                    Eq(mk(kind_fn, built), tag),
                    ((built,),),
                )
            )
    # Reconstruction: knowing a term's kind recovers its constructor shape.
    recon = (
        ("stmtKind", K_SKIP, lambda s: skipS()),
        ("stmtKind", K_DECL, lambda s: declS(mk("declVar", s))),
        ("stmtKind", K_ASSGN, lambda s: assgn(mk("assgnLhs", s), mk("assgnRhs", s))),
        ("stmtKind", K_NEW, lambda s: newS(mk("newVar", s))),
        ("stmtKind", K_CALL, lambda s: callS(mk("callDest", s), mk("callArg", s))),
        ("stmtKind", K_IF, lambda s: ifgoto(mk("ifCond", s), mk("ifThen", s), mk("ifElse", s))),
        ("stmtKind", K_RET, lambda s: retS(mk("retVar", s))),
        ("lhsKind", LK_VAR, lambda l: lvar(mk("lvarId", l))),
        ("lhsKind", LK_DEREF, lambda l: lderef(mk("lderefId", l))),
        ("exprKind", EK_VAR, lambda e: varE(mk("varId", e))),
        ("exprKind", EK_CONST, lambda e: constE(mk("constArg", e))),
        ("exprKind", EK_DEREF, lambda e: derefE(mk("derefId", e))),
        ("exprKind", EK_ADDR, lambda e: addrE(mk("addrId", e))),
        ("exprKind", EK_UNOP, lambda e: unopE(mk("unopOp", e), mk("unopArg", e))),
        ("exprKind", EK_BINOP, lambda e: binopE(mk("binopOp", e), mk("binopL", e), mk("binopR", e))),
    )
    for kind_fn, tag, rebuild in recon:
        t = LVar("t")
        axioms.append(
            Forall(
                ("t",),
                Implies(Eq(mk(kind_fn, t), tag), Eq(t, rebuild(t))),
                ((mk(kind_fn, t),),),
            )
        )
    return axioms


def map_axioms() -> List[Formula]:
    """Simplify's built-in select/update map theory, plus no-op-update and
    the two store-extensionality lemmas the backward obligations rely on."""
    m, k, v, k2 = _vars("m", "k", "v", "k2")
    axioms: List[Formula] = [
        # select(update(m,k,v), k) = v
        Forall(("m", "k", "v"), Eq(select(update(m, k, v), k), v), ((update(m, k, v),),)),
        # k = k2  \/  select(update(m,k,v), k2) = select(m, k2)
        Forall(
            ("m", "k", "v", "k2"),
            Or((Eq(k, k2), Eq(select(update(m, k, v), k2), select(m, k2)))),
            ((select(update(m, k, v), k2),),),
        ),
        # update(m, k, select(m,k)) = m   (functional maps)
        Forall(
            ("m", "k"),
            Eq(update(m, k, select(m, k)), m),
            ((update(m, k, select(m, k)),),),
        ),
    ]
    # boundEnv through environment updates (binding y binds exactly y more).
    rho_, x_, y_, l_ = _vars("rho", "x", "y", "l")
    axioms.append(
        Forall(
            ("rho", "x", "y", "l"),
            Iff(
                bound_env(update(rho_, y_, l_), x_),
                disj((Eq(x_, y_), bound_env(rho_, x_))),
            ),
            ((Pred("boundEnv", (update(rho_, y_, l_), x_)),),),
        )
    )
    # Store extensionality under agreement-except-at-k:
    #   (forall l. l = k \/ select(s1,l) = select(s2,l))
    #      -> update(s1,k,v) = update(s2,k,v)
    s1, s2, l = _vars("s1", "s2", "l")
    agree_except_k = Forall(
        ("l",), Or((Eq(l, k), Eq(select(s1, l), select(s2, l))))
    )
    axioms.append(
        Forall(
            ("s1", "s2", "k", "v"),
            Implies(agree_except_k, Eq(update(s1, k, v), update(s2, k, v))),
            ((update(s1, k, v), update(s2, k, v)),),
        )
    )
    # clearFrame congruence: deallocating a frame erases the one differing
    # cell provided it belongs to the frame (x bound in rho).
    rho, x = _vars("rho", "x")
    agree_except_rx = Forall(
        ("l",), Or((Eq(l, select(rho, x)), Eq(select(s1, l), select(s2, l))))
    )
    axioms.append(
        Forall(
            ("s1", "s2", "rho", "x"),
            Implies(
                conj((bound_env(rho, x), agree_except_rx)),
                Eq(mk("clearFrame", s1, rho), mk("clearFrame", s2, rho)),
            ),
            (
                (
                    mk("clearFrame", s1, rho),
                    mk("clearFrame", s2, rho),
                    Pred("boundEnv", (rho, x)),
                ),
            ),
        )
    )
    return axioms


def wellformed_axioms() -> List[Formula]:
    """Invariants of reachable states of well-formed programs (manual
    justification in docs/THEOREMS.md)."""
    eta, x, y = _vars("eta", "x", "y")
    axioms: List[Formula] = [
        # W1: environments are injective (each variable has its own cell).
        # Propagation-only: its instances relate every pair of identifier
        # terms, so letting DPLL case-split them is quadratic junk; proofs
        # only ever use it once one side of the disjunction is known.
        (
            "wf-env-injective [nosplit]",
            Forall(
                ("eta", "x", "y"),
                Or((Eq(x, y), Not(Eq(select(s_env(eta), x), select(s_env(eta), y))))),
                ((select(s_env(eta), x), select(s_env(eta), y)),),
            ),
        ),
        # W2: fresh locations differ from every environment location.
        Forall(
            ("eta", "x"),
            Not(Eq(mk("freshStack", s_mem(eta)), select(s_env(eta), x))),
            ((mk("freshStack", s_mem(eta)), select(s_env(eta), x)),),
        ),
        Forall(
            ("eta", "x"),
            Not(Eq(mk("freshHeap", s_mem(eta)), select(s_env(eta), x))),
            ((mk("freshHeap", s_mem(eta)), select(s_env(eta), x)),),
        ),
        # W3: environment locations are locations.
        Forall(
            ("eta", "x"),
            is_loc_val(select(s_env(eta), x)),
            ((select(s_env(eta), x),),),
        ),
        # W5: fresh locations are not stored anywhere yet (the allocator
        # counter is beyond every allocated location).
        Forall(
            ("eta", "k"),
            Not(Eq(select(s_store(eta), LVar("k")), mk("freshStack", s_mem(eta)))),
            ((select(s_store(eta), LVar("k")), mk("freshStack", s_mem(eta))),),
        ),
        Forall(
            ("eta", "k"),
            Not(Eq(select(s_store(eta), LVar("k")), mk("freshHeap", s_mem(eta)))),
            ((select(s_store(eta), LVar("k")), mk("freshHeap", s_mem(eta))),),
        ),
        # W6: fresh locations are locations.
        Forall(("m",), is_loc_val(mk("freshStack", LVar("m"))), ((mk("freshStack", LVar("m")),),)),
        Forall(("m",), is_loc_val(mk("freshHeap", LVar("m"))), ((mk("freshHeap", LVar("m")),),)),
    ]
    # W4: operator arguments are base expressions (vars or constants) in
    # well-formed programs, hence pure and deref-free.
    e = LVar("e")
    for proj in ("unopArg", "binopL", "binopR"):
        axioms.append(
            Forall(
                ("e",),
                Or(
                    (
                        Eq(expr_kind(mk(proj, e)), EK_VAR),
                        Eq(expr_kind(mk(proj, e)), EK_CONST),
                    )
                ),
                ((mk(proj, e),),),
            )
        )
    # W7/W8: branch conditions and call arguments are base expressions in
    # well-formed programs (the IL grammar allows only ``b`` there).
    s = LVar("s")
    for kind_tag, proj in ((K_IF, "ifCond"), (K_CALL, "callArg")):
        axioms.append(
            Forall(
                ("s",),
                Implies(
                    Eq(stmt_kind(s), kind_tag),
                    Or(
                        (
                            Eq(expr_kind(mk(proj, s)), EK_VAR),
                            Eq(expr_kind(mk(proj, s)), EK_CONST),
                        )
                    ),
                ),
                ((mk(proj, s),),),
            )
        )
    return axioms


def value_axioms() -> List[Formula]:
    """Sorts of values: ints vs locations vs the absent marker, truthiness,
    and definedness of operator applications."""
    v, op, v1, v2 = _vars("v", "op", "v1", "v2")
    axioms: List[Formula] = [
        # Int and loc values are disjoint; both are "proper" (present).
        Forall(("v",), Implies(is_int_val(v), Not(is_loc_val(v))), ((Pred("isIntVal", (v,)),),)),
        Forall(("v",), Implies(is_int_val(v), proper_val(v)), ((Pred("isIntVal", (v,)),),)),
        Forall(("v",), Implies(is_loc_val(v), proper_val(v)), ((Pred("isLocVal", (v,)),),)),
        # Truthiness of integers: nonzero is true, zero is false.
        Forall(
            ("v",),
            Implies(is_int_val(v), Iff(is_true_val(v), Not(Eq(v, IntConst(0))))),
            ((Pred("isTrueVal", (v,)),),),
        ),
        # Operator results are integers (the logical applyOp/applyUnop are
        # total int-valued extensions of the partial concrete operators;
        # progress obligations guarantee the extension is never observed).
        Forall(
            ("op", "v1", "v2"),
            is_int_val(apply_op(op, v1, v2)),
            ((apply_op(op, v1, v2),),),
        ),
        Forall(("op", "v"), is_int_val(apply_unop(op, v)), ((apply_unop(op, v),),)),
        # The zero literal (decl initialisation) is an integer value.
        is_int_val(IntConst(0)),
        is_int_val(IntConst(1)),
    ]
    # Definedness of concrete operators: an application is defined exactly
    # when its arguments are integers (plus a nonzero divisor), except
    # equality comparisons which accept any values.  Both directions are
    # used: sufficiency by progress conclusions, necessity to extract
    # integer-ness of operands from a stepOK premise (the algebraic
    # simplification proofs rely on it).
    from repro.il.ast import BINARY_OPS, UNARY_OPS

    for name in BINARY_OPS:
        if name in ("/", "%"):
            body = Iff(
                op_args_ok(op_const(name), v1, v2),
                conj((is_int_val(v1), is_int_val(v2), Not(Eq(v2, IntConst(0))))),
            )
        elif name in ("==", "!="):
            body = op_args_ok(op_const(name), v1, v2)
        else:
            body = Iff(
                op_args_ok(op_const(name), v1, v2),
                conj((is_int_val(v1), is_int_val(v2))),
            )
        axioms.append(
            Forall(
                ("v1", "v2"),
                body,
                ((Pred("opArgsOK", (op_const(name), v1, v2)),),),
            )
        )
    # Arithmetic identities on integer values (used by the algebraic
    # simplification rules; each is a fact about the concrete operators).
    v = LVar("v")
    identity_axioms = [
        ("+", (v, IntConst(0)), v),
        ("+", (IntConst(0), v), v),
        ("-", (v, IntConst(0)), v),
        ("*", (v, IntConst(1)), v),
        ("*", (IntConst(1), v), v),
        ("*", (v, IntConst(0)), IntConst(0)),
        ("*", (IntConst(0), v), IntConst(0)),
        ("/", (v, IntConst(1)), v),
    ]
    for name, (a, b), result in identity_axioms:
        term = apply_op(op_const(name), a, b)
        axioms.append(
            Forall(("v",), Implies(is_int_val(v), Eq(term, result)), ((term,),))
        )
    return axioms


def eval_axioms() -> List[Formula]:
    """Kind-directed evaluation of expressions and lvalues, and their
    definedness (the evalOK / lvalOK decomposition)."""
    eta, e, l = _vars("eta", "e", "l")
    rho = s_env(eta)
    sigma = s_store(eta)

    def ek(tag: Term) -> Formula:
        return Eq(expr_kind(e), tag)

    def lk(tag: Term) -> Formula:
        return Eq(lhs_kind(l), tag)

    ev = eval_expr(eta, e)
    ev_trigger = ((ev,),)
    axioms: List[Formula] = [
        Forall(
            ("eta", "e"),
            Implies(ek(EK_VAR), Eq(ev, select(sigma, select(rho, mk("varId", e))))),
            ev_trigger,
        ),
        Forall(("eta", "e"), Implies(ek(EK_CONST), Eq(ev, mk("constArg", e))), ev_trigger),
        Forall(
            ("eta", "e"),
            Implies(
                ek(EK_DEREF),
                Eq(ev, select(sigma, select(sigma, select(rho, mk("derefId", e))))),
            ),
            ev_trigger,
        ),
        Forall(
            ("eta", "e"),
            Implies(ek(EK_ADDR), Eq(ev, select(rho, mk("addrId", e)))),
            ev_trigger,
        ),
        Forall(
            ("eta", "e"),
            Implies(
                ek(EK_UNOP),
                Eq(ev, apply_unop(mk("unopOp", e), eval_expr(eta, mk("unopArg", e)))),
            ),
            ev_trigger,
        ),
        Forall(
            ("eta", "e"),
            Implies(
                ek(EK_BINOP),
                Eq(
                    ev,
                    apply_op(
                        mk("binopOp", e),
                        eval_expr(eta, mk("binopL", e)),
                        eval_expr(eta, mk("binopR", e)),
                    ),
                ),
            ),
            ev_trigger,
        ),
        # Constants evaluate to integer values (IL constants are integers).
        Forall(
            ("eta", "e"),
            Implies(ek(EK_CONST), is_int_val(mk("constArg", e))),
            ev_trigger,
        ),
    ]

    # evalOK decompositions, triggered on the evalOK atom.
    ok = Pred("evalOK", (eta, e))
    ok_trigger = ((ok,),)
    axioms += [
        Forall(("eta", "e"), Implies(ek(EK_CONST), ok), ok_trigger),
        Forall(
            ("eta", "e"),
            Implies(ek(EK_VAR), Iff(ok, bound_env(rho, mk("varId", e)))),
            ok_trigger,
        ),
        Forall(
            ("eta", "e"),
            Implies(ek(EK_ADDR), Iff(ok, bound_env(rho, mk("addrId", e)))),
            ok_trigger,
        ),
        Forall(
            ("eta", "e"),
            Implies(
                ek(EK_DEREF),
                Iff(
                    ok,
                    conj(
                        (
                            bound_env(rho, mk("derefId", e)),
                            is_loc_val(select(sigma, select(rho, mk("derefId", e)))),
                            proper_val(
                                select(sigma, select(sigma, select(rho, mk("derefId", e))))
                            ),
                        )
                    ),
                ),
            ),
            ok_trigger,
        ),
        Forall(
            ("eta", "e"),
            Implies(
                ek(EK_UNOP),
                Iff(
                    ok,
                    conj(
                        (
                            eval_ok(eta, mk("unopArg", e)),
                            is_int_val(eval_expr(eta, mk("unopArg", e))),
                        )
                    ),
                ),
            ),
            ok_trigger,
        ),
        Forall(
            ("eta", "e"),
            Implies(
                ek(EK_BINOP),
                Iff(
                    ok,
                    conj(
                        (
                            eval_ok(eta, mk("binopL", e)),
                            eval_ok(eta, mk("binopR", e)),
                            op_args_ok(
                                mk("binopOp", e),
                                eval_expr(eta, mk("binopL", e)),
                                eval_expr(eta, mk("binopR", e)),
                            ),
                        )
                    ),
                ),
            ),
            ok_trigger,
        ),
    ]

    # evalLExpr and lvalOK.
    evl = eval_lexpr(eta, l)
    evl_trigger = ((evl,),)
    lok = Pred("lvalOK", (eta, l))
    lok_trigger = ((lok,),)
    axioms += [
        Forall(
            ("eta", "l"),
            Implies(lk(LK_VAR), Eq(evl, select(rho, mk("lvarId", l)))),
            evl_trigger,
        ),
        Forall(
            ("eta", "l"),
            Implies(lk(LK_DEREF), Eq(evl, select(sigma, select(rho, mk("lderefId", l))))),
            evl_trigger,
        ),
        Forall(
            ("eta", "l"),
            Implies(lk(LK_VAR), Iff(lok, bound_env(rho, mk("lvarId", l)))),
            lok_trigger,
        ),
        Forall(
            ("eta", "l"),
            Implies(
                lk(LK_DEREF),
                Iff(
                    lok,
                    conj(
                        (
                            bound_env(rho, mk("lderefId", l)),
                            is_loc_val(select(sigma, select(rho, mk("lderefId", l)))),
                        )
                    ),
                ),
            ),
            lok_trigger,
        ),
    ]
    return axioms


def step_axioms() -> List[Formula]:
    """Component-wise small-step semantics, conditioned on statement kind.

    All axioms are triggered on the ``step*`` application itself, so they
    fire exactly when an obligation mentions stepping a state.
    """
    eta, pi = _vars("eta", "pi")
    iota = s_index(eta)
    s = stmt_at(pi, iota)
    rho, sigma, xi, mem = s_env(eta), s_store(eta), s_stack(eta), s_mem(eta)
    qs = ("eta", "pi")

    def kind(tag: Term) -> Formula:
        return Eq(stmt_kind(s), tag)

    si, se, ss, sk, sm = (
        step_index(eta, pi),
        step_env(eta, pi),
        step_store(eta, pi),
        step_stack(eta, pi),
        step_mem(eta, pi),
    )
    sok = Pred("stepOK", (eta, pi))
    axioms: List[Formula] = []

    def add(trigger_term: Term, tag: Term, concl: Formula) -> None:
        axioms.append(Forall(qs, Implies(kind(tag), concl), ((trigger_term,),)))

    succ = mk("@plus", iota, IntConst(1))

    # Fall-through kinds share index/env/store/stack/mem behaviour.
    for tag in (K_SKIP, K_DECL, K_ASSGN, K_NEW, K_CALL):
        add(si, tag, Eq(si, succ))
    for tag in (K_SKIP, K_ASSGN, K_IF, K_CALL):
        add(se, tag, Eq(se, rho))
    for tag in (K_SKIP, K_IF):
        add(ss, tag, Eq(ss, sigma))
    for tag in (K_SKIP, K_DECL, K_ASSGN, K_NEW, K_IF, K_CALL):
        add(sk, tag, Eq(sk, xi))
    for tag in (K_SKIP, K_ASSGN, K_IF):
        add(sm, tag, Eq(sm, mem))

    # skip
    add(sok, K_SKIP, sok)

    # decl x: bind a fresh, zero-initialised stack cell.
    fresh = mk("freshStack", mem)
    add(se, K_DECL, Eq(se, update(rho, mk("declVar", s), fresh)))
    add(ss, K_DECL, Eq(ss, update(sigma, fresh, IntConst(0))))
    add(sm, K_DECL, Eq(sm, mk("bumpStack", mem)))
    axioms.append(
        Forall(
            qs,
            Implies(kind(K_DECL), Iff(sok, Not(bound_env(rho, mk("declVar", s))))),
            ((sok,),),
        )
    )

    # lhs := e
    add(
        ss,
        K_ASSGN,
        Eq(
            ss,
            update(
                sigma,
                eval_lexpr(eta, mk("assgnLhs", s)),
                eval_expr(eta, mk("assgnRhs", s)),
            ),
        ),
    )
    axioms.append(
        Forall(
            qs,
            Implies(
                kind(K_ASSGN),
                Iff(
                    sok,
                    conj(
                        (
                            lval_ok(eta, mk("assgnLhs", s)),
                            eval_ok(eta, mk("assgnRhs", s)),
                        )
                    ),
                ),
            ),
            ((sok,),),
        )
    )

    # x := new
    add(se, K_NEW, Eq(se, rho))
    add(ss, K_NEW, Eq(ss, update(sigma, select(rho, mk("newVar", s)), mk("freshHeap", mem))))
    add(sm, K_NEW, Eq(sm, mk("bumpHeap", mem)))
    axioms.append(
        Forall(
            qs,
            Implies(kind(K_NEW), Iff(sok, bound_env(rho, mk("newVar", s)))),
            ((sok,),),
        )
    )

    # if b goto i else j
    cond_val = eval_expr(eta, mk("ifCond", s))
    axioms.append(
        Forall(
            qs,
            Implies(kind(K_IF), Or((Not(is_true_val(cond_val)), Eq(si, mk("ifThen", s))))),
            ((si,),),
        )
    )
    axioms.append(
        Forall(
            qs,
            Implies(kind(K_IF), Or((is_true_val(cond_val), Eq(si, mk("ifElse", s))))),
            ((si,),),
        )
    )
    axioms.append(
        Forall(
            qs,
            Implies(
                kind(K_IF),
                Iff(
                    sok,
                    conj((eval_ok(eta, mk("ifCond", s)), is_int_val(cond_val))),
                ),
            ),
            ((sok,),),
        )
    )

    # return x: deallocate the frame, write the result into the caller.
    add(si, K_RET, Eq(si, mk("retResume", xi)))
    add(se, K_RET, Eq(se, mk("retEnv", xi)))
    add(sk, K_RET, Eq(sk, mk("popStack", xi)))
    add(sm, K_RET, Eq(sm, mem))
    add(
        ss,
        K_RET,
        Eq(
            ss,
            update(
                mk("clearFrame", sigma, rho),
                mk("retDestLoc", xi),
                select(sigma, select(rho, mk("retVar", s))),
            ),
        ),
    )
    axioms.append(
        Forall(
            qs,
            Implies(
                kind(K_RET),
                Iff(
                    sok,
                    conj(
                        (
                            bound_env(rho, mk("retVar", s)),
                            Pred("stackRetOK", (xi,)),
                        )
                    ),
                ),
            ),
            ((sok,),),
        )
    )

    # x := p(b): the conservative step-over-call axioms (section 5.1).
    l = LVar("l")
    add(se, K_CALL, Eq(se, rho))
    # Primary axiom: the store after a call preserves the values of
    # locations not pointed to before the call (other than the
    # destination's own cell).
    axioms.append(
        Forall(
            ("eta", "pi", "l"),
            Implies(
                conj(
                    (
                        kind(K_CALL),
                        npt(sigma, l),
                        Not(Eq(l, select(rho, mk("callDest", s)))),
                    )
                ),
                Eq(select(ss, l), select(sigma, l)),
            ),
            ((ss, select(sigma, l)),),
        )
    )
    # A call cannot create pointers to a location nothing pointed to before
    # (the callee cannot forge locations it was never passed).
    axioms.append(
        Forall(
            ("eta", "pi", "l"),
            Implies(conj((kind(K_CALL), npt(sigma, l))), npt(ss, l)),
            ((Pred("NPT", (ss, l)),),),
        )
    )
    return axioms


def npt_axioms() -> List[Formula]:
    """Definition of NPT (notPointedTo) and its preservation by updates."""
    sigma, l, k, v = _vars("sigma", "l", "k", "v")
    axioms: List[Formula] = [
        # NPT(sigma, l) -> select(sigma, k) != l    for every k
        Forall(
            ("sigma", "l", "k"),
            Implies(npt(sigma, l), Not(Eq(select(sigma, k), l))),
            ((Pred("NPT", (sigma, l)), select(sigma, k)),),
        ),
        # ~NPT(sigma, l) -> some cell contains l (Skolem witness nptw).
        Forall(
            ("sigma", "l"),
            Or((npt(sigma, l), Eq(select(sigma, mk("nptw", sigma, l)), l))),
            ((Pred("NPT", (sigma, l)),),),
        ),
        # clearFrame only removes cells: every cell of the cleared store is
        # either absent or unchanged, so clearing cannot create pointers.
        Forall(
            ("sigma", "rho", "k"),
            Or(
                (
                    Eq(select(mk("clearFrame", sigma, LVar("rho")), k), App("absentV")),
                    Eq(select(mk("clearFrame", sigma, LVar("rho")), k), select(sigma, k)),
                )
            ),
            ((select(mk("clearFrame", sigma, LVar("rho")), k),),),
        ),
        # The absent marker is not a proper value (reading it is an error)
        # and in particular is never a location.
        Not(proper_val(App("absentV"))),
        Not(is_loc_val(App("absentV"))),
    ]
    return axioms


def frame_axioms() -> List[Formula]:
    """The expression frame rule: a pure expression's value and definedness
    depend only on the environment and the cells of the variables it reads.

    Clausification Skolemizes the inner universal into a witness variable,
    giving the classic two-clause form used in the F2/B2 proofs.
    """
    eta1, eta2, e, x = _vars("eta1", "eta2", "e", "x")
    # FR0: evaluation depends only on the environment and the store, so two
    # states sharing both evaluate every expression identically (no purity
    # needed: derefs read the same store).
    same_components = conj(
        (Eq(s_env(eta1), s_env(eta2)), Eq(s_store(eta1), s_store(eta2)))
    )
    fr0 = [
        Forall(
            ("eta1", "eta2", "e"),
            Implies(same_components, Eq(eval_expr(eta1, e), eval_expr(eta2, e))),
            ((eval_expr(eta1, e), eval_expr(eta2, e)),),
        ),
        Forall(
            ("eta1", "eta2", "e"),
            Implies(same_components, Iff(eval_ok(eta1, e), eval_ok(eta2, e))),
            ((Pred("evalOK", (eta1, e)), Pred("evalOK", (eta2, e))),),
        ),
        Forall(
            ("eta1", "eta2", "e"),
            Implies(same_components, Eq(eval_lexpr(eta1, e), eval_lexpr(eta2, e))),
            ((eval_lexpr(eta1, e), eval_lexpr(eta2, e)),),
        ),
        Forall(
            ("eta1", "eta2", "e"),
            Implies(same_components, Iff(lval_ok(eta1, e), lval_ok(eta2, e))),
            ((Pred("lvalOK", (eta1, e)), Pred("lvalOK", (eta2, e))),),
        ),
    ]
    # FR1's premise is per-variable: the expression's mentioned variables
    # have the same *locations* (environments may otherwise differ, e.g.
    # after a decl of an unrelated variable) and its used variables the same
    # *values*.
    env_agree = Forall(
        ("x",),
        Implies(
            mentions_e(e, x),
            Eq(select(s_env(eta1), x), select(s_env(eta2), x)),
        ),
    )
    agree = Forall(
        ("x",),
        Implies(
            uses_e(e, x),
            Eq(
                select(s_store(eta1), select(s_env(eta1), x)),
                select(s_store(eta2), select(s_env(eta2), x)),
            ),
        ),
    )
    premise = conj((pure_e(e), env_agree, agree))
    return fr0 + [
        Forall(
            ("eta1", "eta2", "e"),
            Implies(premise, Eq(eval_expr(eta1, e), eval_expr(eta2, e))),
            ((eval_expr(eta1, e), eval_expr(eta2, e)),),
        ),
        Forall(
            ("eta1", "eta2", "e"),
            Implies(premise, Iff(eval_ok(eta1, e), eval_ok(eta2, e))),
            ((Pred("evalOK", (eta1, e)), Pred("evalOK", (eta2, e))),),
        ),
    ]


def uses_axioms() -> List[Formula]:
    """Kind-directed definitions of usesE, mentionsE, pureE and stmtUses."""
    e, y, s = _vars("e", "y", "s")

    def ek(tag: Term) -> Formula:
        return Eq(expr_kind(e), tag)

    u = Pred("usesE", (e, y))
    m = Pred("mentionsE", (e, y))
    qs = ("e", "y")
    ut, mt = ((u,),), ((m,),)
    axioms: List[Formula] = [
        Forall(qs, Implies(ek(EK_VAR), Iff(u, Eq(y, mk("varId", e)))), ut),
        Forall(qs, Implies(ek(EK_CONST), Not(u)), ut),
        Forall(qs, Implies(ek(EK_ADDR), Not(u)), ut),
        Forall(qs, Implies(ek(EK_DEREF), Iff(u, Eq(y, mk("derefId", e)))), ut),
        Forall(qs, Implies(ek(EK_UNOP), Iff(u, uses_e(mk("unopArg", e), y))), ut),
        Forall(
            qs,
            Implies(
                ek(EK_BINOP),
                Iff(u, disj((uses_e(mk("binopL", e), y), uses_e(mk("binopR", e), y)))),
            ),
            ut,
        ),
        Forall(qs, Implies(ek(EK_VAR), Iff(m, Eq(y, mk("varId", e)))), mt),
        Forall(qs, Implies(ek(EK_CONST), Not(m)), mt),
        Forall(qs, Implies(ek(EK_ADDR), Iff(m, Eq(y, mk("addrId", e)))), mt),
        Forall(qs, Implies(ek(EK_DEREF), Iff(m, Eq(y, mk("derefId", e)))), mt),
        Forall(qs, Implies(ek(EK_UNOP), Iff(m, mentions_e(mk("unopArg", e), y))), mt),
        Forall(
            qs,
            Implies(
                ek(EK_BINOP),
                Iff(
                    m,
                    disj(
                        (mentions_e(mk("binopL", e), y), mentions_e(mk("binopR", e), y))
                    ),
                ),
            ),
            mt,
        ),
    ]
    # Reading a variable's contents in particular mentions it.
    axioms.append(
        Forall(qs, Implies(u, m), ut)
    )
    p = Pred("pureE", (e,))
    pt = ((p,),)
    for tag in (EK_VAR, EK_CONST, EK_ADDR, EK_UNOP, EK_BINOP):
        axioms.append(Forall(("e",), Implies(Eq(expr_kind(e), tag), p), pt))
    axioms.append(Forall(("e",), Implies(Eq(expr_kind(e), EK_DEREF), Not(p)), pt))

    # stmtUses(s, y): which variables' contents does executing s read?
    def sk(tag: Term) -> Formula:
        return Eq(stmt_kind(s), tag)

    su = Pred("stmtUses", (s, y))
    st = ((su,),)
    sqs = ("s", "y")
    axioms += [
        Forall(sqs, Implies(sk(K_SKIP), Not(su)), st),
        Forall(sqs, Implies(sk(K_DECL), Not(su)), st),
        Forall(sqs, Implies(sk(K_NEW), Not(su)), st),
        Forall(
            sqs,
            Implies(
                sk(K_ASSGN),
                Iff(
                    su,
                    disj(
                        (
                            uses_e(mk("assgnRhs", s), y),
                            conj(
                                (
                                    Eq(lhs_kind(mk("assgnLhs", s)), LK_DEREF),
                                    Eq(y, mk("lderefId", mk("assgnLhs", s))),
                                )
                            ),
                        )
                    ),
                ),
            ),
            st,
        ),
        Forall(sqs, Implies(sk(K_CALL), Iff(su, uses_e(mk("callArg", s), y))), st),
        Forall(sqs, Implies(sk(K_IF), Iff(su, uses_e(mk("ifCond", s), y))), st),
        Forall(sqs, Implies(sk(K_RET), Iff(su, Eq(y, mk("retVar", s)))), st),
    ]
    return axioms


_ALL_AXIOMS: Optional[Tuple[Formula, ...]] = None


def all_axioms() -> List[Formula]:
    """The complete optimization-independent axiom set.

    Built once per process and cached — the builders are pure and the
    formulas immutable (interned), so every checker shares one set.  A
    fresh list is returned each call (callers extend it with per-pattern
    label axioms)."""
    global _ALL_AXIOMS
    if _ALL_AXIOMS is None:
        _ALL_AXIOMS = tuple(
            structural_axioms()
            + map_axioms()
            + wellformed_axioms()
            + value_axioms()
            + eval_axioms()
            + step_axioms()
            + npt_axioms()
            + frame_axioms()
            + uses_axioms()
        )
    return list(_ALL_AXIOMS)


#: The proof cache's digest of the background theory (a registered memo,
#: so ``structural_reference`` recomputes it).
_DIGEST_MEMO: Dict[tuple, str] = register_memo({})


def all_axioms_digest() -> str:
    """``axioms_digest(all_axioms(), CONSTRUCTORS)``: the background
    theory's part of every obligation key, computed once per process
    alongside the axioms."""
    from repro.verify.cache import axioms_digest

    return memoized(
        _DIGEST_MEMO, 1, (), lambda: axioms_digest(all_axioms(), CONSTRUCTORS)
    )


def kind_exhaustiveness(term: Term, kind_fn: str, tags: Sequence[Term]) -> Formula:
    """A ground exhaustiveness instance for a specific term — the case-split
    seeds the obligation generator plants (valid instances of the datatype
    exhaustiveness axiom)."""
    return disj(tuple(Eq(mk(kind_fn, term), tag) for tag in tags))
