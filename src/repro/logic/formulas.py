"""First-order formulas and the clausification pipeline, hash-consed.

The prover is a refutation prover over clauses, so formulas pass through the
classical pipeline: negation-normal form, Skolemization of existentials,
and conversion to clauses.  Universally quantified clauses keep their bound
variables free (they are instantiated by E-matching); ground clauses go to
the DPLL core directly.

Atoms are equalities ``Eq(t1, t2)`` and predicate applications
``Pred(p, args)``.  The prover internally represents ``Pred(p, args)`` as the
equality ``App(p, args) == @true`` so that congruence closure handles both
uniformly.

Like terms (:mod:`repro.logic.terms`), every formula, literal, and clause is
interned: structurally equal nodes are the same object, with cached hash,
free-variable set, and printed form.  The pipeline transformations are
memoized per node — ``subst_formula`` by (node, binding key), ``nnf`` by
(node, polarity), ``skolemize`` by (node, prefix) (sound because the Skolem
counter is local to each call), ``clausify`` by (node, origin, prefix), and
``Clause.substitute`` by (clause, binding key).  The memoized pipeline is
byte-for-byte equivalent to the recursive definitions, which survive as the
executable specification in :mod:`repro.logic.reference`; tests re-run the
suite under :func:`repro.logic.intern.structural_reference` to pin that.
See docs/TERMS.md.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.logic import intern as _intern
from repro.logic.intern import STATS as _STATS, lookup as _lookup, publish as _publish
from repro.logic.terms import (
    App,
    IntConst,
    LVar,
    Subst,
    Term,
    _Node,
    binding_key,
    free_vars,
    subst,
    subst_with_key,
)

_EMPTY_FVS: FrozenSet[str] = frozenset()
_setattr = object.__setattr__


def _union_fvs(items) -> FrozenSet[str]:
    out = _EMPTY_FVS
    for it in items:
        out |= it._fvs
    return out


class Top(_Node):
    __slots__ = ("_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls) -> "Top":
        key = ("Top",)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", _EMPTY_FVS)
        _setattr(self, "_str", "true")
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Top",)

    def __reduce__(self):
        return (Top, ())

    def __repr__(self) -> str:
        return "Top()"

    def __str__(self) -> str:
        return "true"


class Bottom(_Node):
    __slots__ = ("_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls) -> "Bottom":
        key = ("Bot",)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", _EMPTY_FVS)
        _setattr(self, "_str", "false")
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Bot",)

    def __reduce__(self):
        return (Bottom, ())

    def __repr__(self) -> str:
        return "Bottom()"

    def __str__(self) -> str:
        return "false"


class Eq(_Node):
    __slots__ = ("lhs", "rhs", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, lhs: Term, rhs: Term) -> "Eq":
        key = ("Eq", lhs, rhs)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "lhs", lhs)
        _setattr(self, "rhs", rhs)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", lhs._fvs | rhs._fvs)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Eq", self.lhs, self.rhs)

    def __reduce__(self):
        return (Eq, (self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"Eq(lhs={self.lhs!r}, rhs={self.rhs!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"{self.lhs} = {self.rhs}"
            _setattr(self, "_str", s)
        return s


class Pred(_Node):
    __slots__ = ("name", "args", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, name: str, args: Tuple[Term, ...] = ()) -> "Pred":
        if type(args) is not tuple:
            args = tuple(args)
        key = ("Pred", name, args)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "name", name)
        _setattr(self, "args", args)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", _union_fvs(args) if args else _EMPTY_FVS)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Pred", self.name, self.args)

    def __reduce__(self):
        return (Pred, (self.name, self.args))

    def __repr__(self) -> str:
        return f"Pred(name={self.name!r}, args={self.args!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            if not self.args:
                s = self.name
            else:
                s = f"{self.name}({', '.join(map(str, self.args))})"
            _setattr(self, "_str", s)
        return s


class Not(_Node):
    __slots__ = ("body", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, body: "Formula") -> "Not":
        key = ("Not", body)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "body", body)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", body._fvs)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Not", self.body)

    def __reduce__(self):
        return (Not, (self.body,))

    def __repr__(self) -> str:
        return f"Not(body={self.body!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"~({self.body})"
            _setattr(self, "_str", s)
        return s


class And(_Node):
    __slots__ = ("parts", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, parts: Tuple["Formula", ...]) -> "And":
        if type(parts) is not tuple:
            parts = tuple(parts)
        key = ("And", parts)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "parts", parts)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", _union_fvs(parts))
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("And", self.parts)

    def __reduce__(self):
        return (And, (self.parts,))

    def __repr__(self) -> str:
        return f"And(parts={self.parts!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = "(" + " & ".join(map(str, self.parts)) + ")"
            _setattr(self, "_str", s)
        return s


class Or(_Node):
    __slots__ = ("parts", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, parts: Tuple["Formula", ...]) -> "Or":
        if type(parts) is not tuple:
            parts = tuple(parts)
        key = ("Or", parts)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "parts", parts)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", _union_fvs(parts))
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Or", self.parts)

    def __reduce__(self):
        return (Or, (self.parts,))

    def __repr__(self) -> str:
        return f"Or(parts={self.parts!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = "(" + " | ".join(map(str, self.parts)) + ")"
            _setattr(self, "_str", s)
        return s


class Implies(_Node):
    __slots__ = ("hyp", "conc", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, hyp: "Formula", conc: "Formula") -> "Implies":
        key = ("Imp", hyp, conc)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "hyp", hyp)
        _setattr(self, "conc", conc)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", hyp._fvs | conc._fvs)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Imp", self.hyp, self.conc)

    def __reduce__(self):
        return (Implies, (self.hyp, self.conc))

    def __repr__(self) -> str:
        return f"Implies(hyp={self.hyp!r}, conc={self.conc!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"({self.hyp} -> {self.conc})"
            _setattr(self, "_str", s)
        return s


class Iff(_Node):
    __slots__ = ("lhs", "rhs", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, lhs: "Formula", rhs: "Formula") -> "Iff":
        key = ("Iff", lhs, rhs)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "lhs", lhs)
        _setattr(self, "rhs", rhs)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", lhs._fvs | rhs._fvs)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("Iff", self.lhs, self.rhs)

    def __reduce__(self):
        return (Iff, (self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"Iff(lhs={self.lhs!r}, rhs={self.rhs!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"({self.lhs} <-> {self.rhs})"
            _setattr(self, "_str", s)
        return s


class Forall(_Node):
    #: ``triggers``: optional E-matching triggers — each trigger is a tuple of
    #: pattern terms (a multi-pattern) whose variables jointly cover ``vars``.
    __slots__ = ("vars", "body", "triggers", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(
        cls,
        vars: Tuple[str, ...],
        body: "Formula",
        triggers: Tuple[Tuple[Term, ...], ...] = (),
    ) -> "Forall":
        if type(vars) is not tuple:
            vars = tuple(vars)
        triggers = tuple(t if type(t) is tuple else tuple(t) for t in triggers)
        key = ("FA", vars, body, triggers)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "vars", vars)
        _setattr(self, "body", body)
        _setattr(self, "triggers", triggers)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", body._fvs - frozenset(vars) if body._fvs else _EMPTY_FVS)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("FA", self.vars, self.body, self.triggers)

    def __reduce__(self):
        return (Forall, (self.vars, self.body, self.triggers))

    def __repr__(self) -> str:
        return (
            f"Forall(vars={self.vars!r}, body={self.body!r}, "
            f"triggers={self.triggers!r})"
        )

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"(forall {' '.join(self.vars)}. {self.body})"
            _setattr(self, "_str", s)
        return s


class Exists(_Node):
    __slots__ = ("vars", "body", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, vars: Tuple[str, ...], body: "Formula") -> "Exists":
        if type(vars) is not tuple:
            vars = tuple(vars)
        key = ("EX", vars, body)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "vars", vars)
        _setattr(self, "body", body)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", body._fvs - frozenset(vars) if body._fvs else _EMPTY_FVS)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("EX", self.vars, self.body)

    def __reduce__(self):
        return (Exists, (self.vars, self.body))

    def __repr__(self) -> str:
        return f"Exists(vars={self.vars!r}, body={self.body!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"(exists {' '.join(self.vars)}. {self.body})"
            _setattr(self, "_str", s)
        return s


Formula = Union[Top, Bottom, Eq, Pred, Not, And, Or, Implies, Iff, Forall, Exists]

Atom = Union[Eq, Pred]

_FORMULA_TYPES = (Top, Bottom, Eq, Pred, Not, And, Or, Implies, Iff, Forall, Exists)


def conj(parts: Sequence[Formula]) -> Formula:
    """N-ary conjunction with unit simplification."""
    flat = [p for p in parts if not isinstance(p, Top)]
    if any(isinstance(p, Bottom) for p in flat):
        return Bottom()
    if not flat:
        return Top()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(parts: Sequence[Formula]) -> Formula:
    """N-ary disjunction with unit simplification."""
    flat = [p for p in parts if not isinstance(p, Bottom)]
    if any(isinstance(p, Top) for p in flat):
        return Top()
    if not flat:
        return Bottom()
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def formula_free_vars(f: Formula) -> FrozenSet[str]:
    """Free logic-variable names of a formula (cached per node)."""
    if isinstance(f, _FORMULA_TYPES):
        _STATS.free_vars_hits += 1
        return f._fvs
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Substitution over formulas.
# ---------------------------------------------------------------------------

_FSUBST_MEMO: Dict[tuple, Formula] = _intern.register_memo({})
_FSUBST_MEMO_MAX = 1 << 17


def subst_formula(f: Formula, binding: Subst) -> Formula:
    """Capture-avoiding-enough substitution (bound names are never reused
    as substitution domain/range names by our generators).

    Prunes on cached free-variable sets and memoizes per (node, binding key);
    identical to the plain recursion under interning.
    """
    if not isinstance(f, _FORMULA_TYPES):
        raise TypeError(f"not a formula: {f!r}")
    fvs = f._fvs
    if not fvs or not binding or fvs.isdisjoint(binding):
        return f
    return _subst_f(f, binding, binding_key(binding))


def _subst_f(f: Formula, binding: Subst, bkey: tuple) -> Formula:
    fvs = f._fvs
    if not fvs or fvs.isdisjoint(binding):
        return f
    memoize = _intern.MEMO_ENABLED
    if memoize:
        key = (f, bkey)
        hit = _FSUBST_MEMO.get(key)
        if hit is not None:
            _STATS.subst_hits += 1
            return hit
    _STATS.subst_misses += 1
    if isinstance(f, Eq):
        out: Formula = Eq(
            subst_with_key(f.lhs, binding, bkey),
            subst_with_key(f.rhs, binding, bkey),
        )
    elif isinstance(f, Pred):
        out = Pred(
            f.name, tuple(subst_with_key(a, binding, bkey) for a in f.args)
        )
    elif isinstance(f, Not):
        out = Not(_subst_f(f.body, binding, bkey))
    elif isinstance(f, And):
        out = And(tuple(_subst_f(p, binding, bkey) for p in f.parts))
    elif isinstance(f, Or):
        out = Or(tuple(_subst_f(p, binding, bkey) for p in f.parts))
    elif isinstance(f, Implies):
        out = Implies(
            _subst_f(f.hyp, binding, bkey), _subst_f(f.conc, binding, bkey)
        )
    elif isinstance(f, Iff):
        out = Iff(
            _subst_f(f.lhs, binding, bkey), _subst_f(f.rhs, binding, bkey)
        )
    elif isinstance(f, Forall):
        inner = {k: v for k, v in binding.items() if k not in f.vars}
        if len(inner) == len(binding):
            body = _subst_f(f.body, binding, bkey)
        else:
            body = subst_formula(f.body, inner)
        out = Forall(f.vars, body, f.triggers)
    elif isinstance(f, Exists):
        inner = {k: v for k, v in binding.items() if k not in f.vars}
        if len(inner) == len(binding):
            body = _subst_f(f.body, binding, bkey)
        else:
            body = subst_formula(f.body, inner)
        out = Exists(f.vars, body)
    else:  # pragma: no cover - guarded by the entry check
        raise TypeError(f"not a formula: {f!r}")
    if memoize:
        if len(_FSUBST_MEMO) >= _FSUBST_MEMO_MAX:
            _FSUBST_MEMO.clear()
        _FSUBST_MEMO[key] = out
    return out


# ---------------------------------------------------------------------------
# Negation-normal form
# ---------------------------------------------------------------------------

_NNF_MEMO: Dict[tuple, Formula] = _intern.register_memo({})
_NNF_MEMO_MAX = 1 << 17


def nnf(f: Formula, *, positive: bool = True) -> Formula:
    """Negation-normal form of ``f`` (or of its negation when positive=False).

    Eliminates ``Implies`` and ``Iff`` and pushes negation to atoms.
    Memoized per (node, polarity).
    """
    memoize = _intern.MEMO_ENABLED
    if memoize:
        key = (f, positive)
        hit = _NNF_MEMO.get(key)
        if hit is not None:
            _STATS.nnf_hits += 1
            return hit
    _STATS.nnf_misses += 1
    out = _nnf_compute(f, positive)
    if memoize:
        if len(_NNF_MEMO) >= _NNF_MEMO_MAX:
            _NNF_MEMO.clear()
        _NNF_MEMO[key] = out
    return out


def _nnf_compute(f: Formula, positive: bool) -> Formula:
    if isinstance(f, Top):
        return Top() if positive else Bottom()
    if isinstance(f, Bottom):
        return Bottom() if positive else Top()
    if isinstance(f, (Eq, Pred)):
        return f if positive else Not(f)
    if isinstance(f, Not):
        return nnf(f.body, positive=not positive)
    if isinstance(f, And):
        parts = tuple(nnf(p, positive=positive) for p in f.parts)
        return conj(parts) if positive else disj(parts)
    if isinstance(f, Or):
        parts = tuple(nnf(p, positive=positive) for p in f.parts)
        return disj(parts) if positive else conj(parts)
    if isinstance(f, Implies):
        if positive:
            return disj((nnf(f.hyp, positive=False), nnf(f.conc, positive=True)))
        return conj((nnf(f.hyp, positive=True), nnf(f.conc, positive=False)))
    if isinstance(f, Iff):
        forward = Implies(f.lhs, f.rhs)
        backward = Implies(f.rhs, f.lhs)
        return nnf(conj((forward, backward)), positive=positive)
    if isinstance(f, Forall):
        if positive:
            return Forall(f.vars, nnf(f.body, positive=True), f.triggers)
        return Exists(f.vars, nnf(f.body, positive=False))
    if isinstance(f, Exists):
        if positive:
            return Exists(f.vars, nnf(f.body, positive=True))
        return Forall(f.vars, nnf(f.body, positive=False))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Skolemization
# ---------------------------------------------------------------------------

_SKOLEM_MEMO: Dict[tuple, Formula] = _intern.register_memo({})
_SKOLEM_MEMO_MAX = 1 << 16


class _SkolemGen:
    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.counter = itertools.count()

    def fresh(self, hint: str, args: Sequence[Term]) -> Term:
        name = f"{self.prefix}{hint}!{next(self.counter)}"
        return App(name, tuple(args))


def skolemize(f: Formula, *, prefix: str = "sk_") -> Formula:
    """Replace existentials in an NNF formula with Skolem functions.

    Each existential variable becomes a fresh function of the universal
    variables in scope at its binder.  The generated names depend only on
    (formula, prefix) — the counter is local to each call — so the result is
    memoizable per (node, prefix).
    """
    memoize = _intern.MEMO_ENABLED
    if memoize:
        key = (f, prefix)
        hit = _SKOLEM_MEMO.get(key)
        if hit is not None:
            _STATS.skolem_hits += 1
            return hit
    _STATS.skolem_misses += 1
    gen = _SkolemGen(prefix)

    def go(g: Formula, universals: Tuple[str, ...]) -> Formula:
        if isinstance(g, (Top, Bottom, Eq, Pred, Not)):
            return g
        if isinstance(g, And):
            return And(tuple(go(p, universals) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(go(p, universals) for p in g.parts))
        if isinstance(g, Forall):
            return Forall(g.vars, go(g.body, universals + g.vars), g.triggers)
        if isinstance(g, Exists):
            binding: Dict[str, Term] = {}
            for v in g.vars:
                binding[v] = gen.fresh(v, tuple(LVar(u) for u in universals))
            return go(subst_formula(g.body, binding), universals)
        raise TypeError(f"formula not in NNF: {g!r}")

    out = go(f, ())
    if memoize:
        if len(_SKOLEM_MEMO) >= _SKOLEM_MEMO_MAX:
            _SKOLEM_MEMO.clear()
        _SKOLEM_MEMO[key] = out
    return out


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


class Literal(_Node):
    """A signed atom."""

    __slots__ = ("positive", "atom", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(cls, positive: bool, atom: Atom) -> "Literal":
        key = ("Lit", positive, atom)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "positive", positive)
        _setattr(self, "atom", atom)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", atom._fvs)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.atom)

    def _struct_key(self) -> tuple:
        return ("Lit", self.positive, self.atom)

    def __reduce__(self):
        return (Literal, (self.positive, self.atom))

    def __repr__(self) -> str:
        return f"Literal(positive={self.positive!r}, atom={self.atom!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = str(self.atom) if self.positive else f"~{self.atom}"
            _setattr(self, "_str", s)
        return s


_CSUBST_MEMO: Dict[tuple, "Clause"] = _intern.register_memo({})
_CSUBST_MEMO_MAX = 1 << 17


class Clause(_Node):
    """A disjunction of literals; free variables are implicitly universal.

    ``triggers`` guide E-matching for non-ground clauses; empty means
    auto-select.  ``origin`` names the axiom the clause came from (for
    counterexample reporting).
    """

    __slots__ = ("literals", "triggers", "origin", "_hash", "_fvs", "_str", "_interned", "__weakref__")

    def __new__(
        cls,
        literals: Tuple[Literal, ...],
        triggers: Tuple[Tuple[Term, ...], ...] = (),
        origin: str = "",
    ) -> "Clause":
        if type(literals) is not tuple:
            literals = tuple(literals)
        triggers = tuple(t if type(t) is tuple else tuple(t) for t in triggers)
        key = ("Cl", literals, triggers, origin)
        self = _lookup(key)
        if self is not None:
            _STATS.formula_hits += 1
            return self
        _STATS.formula_misses += 1
        self = object.__new__(cls)
        _setattr(self, "literals", literals)
        _setattr(self, "triggers", triggers)
        _setattr(self, "origin", origin)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", _union_fvs(literals))
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def vars(self) -> FrozenSet[str]:
        return self._fvs

    def is_ground(self) -> bool:
        return not self._fvs

    def substitute(self, binding: Subst) -> "Clause":
        """Instantiate; like the reference recursion, triggers are dropped.

        Memoized per (clause, binding key): E-matching re-derives the same
        binding for the same clause constantly (≈90% of admissions are
        dedup hits downstream), so the instantiation is usually a lookup.
        """
        if not self._fvs or not binding or self._fvs.isdisjoint(binding):
            if not self.triggers:
                return self
            return Clause(self.literals, (), self.origin)
        bkey = binding_key(binding)
        memoize = _intern.MEMO_ENABLED
        if memoize:
            key = (self, bkey)
            hit = _CSUBST_MEMO.get(key)
            if hit is not None:
                _STATS.clause_subst_hits += 1
                return hit
        _STATS.clause_subst_misses += 1
        lits = []
        for lit in self.literals:
            atom = lit.atom
            if not atom._fvs or atom._fvs.isdisjoint(binding):
                lits.append(lit)
                continue
            if isinstance(atom, Eq):
                new_atom: Atom = Eq(
                    subst_with_key(atom.lhs, binding, bkey),
                    subst_with_key(atom.rhs, binding, bkey),
                )
            else:
                new_atom = Pred(
                    atom.name,
                    tuple(subst_with_key(a, binding, bkey) for a in atom.args),
                )
            lits.append(Literal(lit.positive, new_atom))
        out = Clause(tuple(lits), (), self.origin)
        if memoize:
            if len(_CSUBST_MEMO) >= _CSUBST_MEMO_MAX:
                _CSUBST_MEMO.clear()
            _CSUBST_MEMO[key] = out
        return out

    def _struct_key(self) -> tuple:
        return ("Cl", self.literals, self.triggers, self.origin)

    def __reduce__(self):
        return (Clause, (self.literals, self.triggers, self.origin))

    def __repr__(self) -> str:
        return (
            f"Clause(literals={self.literals!r}, triggers={self.triggers!r}, "
            f"origin={self.origin!r})"
        )

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = " | ".join(map(str, self.literals)) or "<empty>"
            _setattr(self, "_str", s)
        return s


_CLAUSIFY_MEMO: Dict[tuple, Tuple[Clause, ...]] = _intern.register_memo({})
_CLAUSIFY_MEMO_MAX = 1 << 16


def clausify(f: Formula, *, origin: str = "", prefix: str = "sk_") -> List[Clause]:
    """Convert a closed formula to clauses (NNF, Skolemize, distribute).

    The input may contain arbitrary nesting; distribution is naive (the
    formulas produced by the obligation generators are small).  Triggers
    attached to outermost ``Forall`` binders are propagated to every clause
    produced from their bodies.

    Memoized per (formula, origin, prefix) — all three feed the output
    (clause origins and Skolem names) and nothing else does.  Returns a
    fresh list each call; the clauses themselves are shared.
    """
    memoize = _intern.MEMO_ENABLED
    if memoize:
        key = (f, origin, prefix)
        hit = _CLAUSIFY_MEMO.get(key)
        if hit is not None:
            _STATS.clausify_hits += 1
            return list(hit)
    _STATS.clausify_misses += 1
    g = skolemize(nnf(f), prefix=prefix)

    def gather(h: Formula, triggers: Tuple[Tuple[Term, ...], ...]) -> List[Tuple[Formula, Tuple[Tuple[Term, ...], ...]]]:
        if isinstance(h, Forall):
            merged = triggers + h.triggers
            return gather(h.body, merged)
        if isinstance(h, And):
            out: List[Tuple[Formula, Tuple[Tuple[Term, ...], ...]]] = []
            for p in h.parts:
                out.extend(gather(p, triggers))
            return out
        return [(h, triggers)]

    clauses: List[Clause] = []
    for body, triggers in gather(g, ()):
        for disjunct_set in _cnf(body):
            if disjunct_set is None:  # tautology
                continue
            simplified = _simplify_clause(tuple(disjunct_set))
            if simplified is None:
                continue
            clauses.append(Clause(simplified, triggers, origin))
    if memoize:
        if len(_CLAUSIFY_MEMO) >= _CLAUSIFY_MEMO_MAX:
            _CLAUSIFY_MEMO.clear()
        _CLAUSIFY_MEMO[key] = tuple(clauses)
    return clauses


def _cnf(f: Formula) -> List[Optional[Tuple[Literal, ...]]]:
    """CNF of a quantifier-free NNF formula, as lists of literal tuples.

    ``None`` entries mark clauses that simplified to tautologies.
    """
    if isinstance(f, Top):
        return []
    if isinstance(f, Bottom):
        return [tuple()]
    if isinstance(f, (Eq, Pred)):
        return [(Literal(True, f),)]
    if isinstance(f, Not):
        assert isinstance(f.body, (Eq, Pred)), f"not NNF: {f}"
        return [(Literal(False, f.body),)]
    if isinstance(f, And):
        out: List[Optional[Tuple[Literal, ...]]] = []
        for p in f.parts:
            out.extend(_cnf(p))
        return out
    if isinstance(f, Or):
        # Cartesian product of the children's clause sets.
        product: List[Tuple[Literal, ...]] = [tuple()]
        for p in f.parts:
            child = [c for c in _cnf(p) if c is not None]
            if not child:
                # The child is a tautology, so the whole disjunction is true.
                return []
            product = [a + b for a in product for b in child]
        return [_simplify_clause(c) for c in product]
    if isinstance(f, Forall):
        # Inner quantifier: hoist its variables (they are distinct by
        # construction in our generators).
        inner = _cnf(f.body)
        return inner
    raise TypeError(f"unexpected formula in CNF conversion: {f!r}")


def _simplify_clause(lits: Tuple[Literal, ...]) -> Optional[Tuple[Literal, ...]]:
    seen: Dict[Tuple[bool, Atom], None] = {}
    for lit in lits:
        if (not lit.positive, lit.atom) in seen:
            return None  # p | ~p
        key = (lit.positive, lit.atom)
        if key not in seen:
            seen[key] = None
    # Reflexive equalities.
    out = []
    for lit, _ in seen.items():
        positive, atom = lit
        if isinstance(atom, Eq) and atom.lhs == atom.rhs:
            if positive:
                return None  # t = t is true, clause is a tautology
            continue  # ~(t = t) is false, drop the literal
        out.append(Literal(positive, atom))
    return tuple(out)
