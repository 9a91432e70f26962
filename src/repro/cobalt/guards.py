"""The guard formula language psi (paper section 3.2.2) and its semantics.

Grammar::

    psi ::= true | false | ~psi | psi \\/ psi | psi /\\ psi
          | l(t, ..., t) | t = t
          | case currStmt of p -> psi ... else -> psi endcase

Terms ``t`` are extended-IL fragments (pattern variables or concrete
fragments).  The semantics ``iota |=theta psi`` says whether the node with
index ``iota`` of a labeled CFG satisfies ``psi`` under the substitution
``theta`` (Definition in section 3.2.2).

Two evaluation modes are provided:

* :func:`check` — ``theta`` binds every pattern variable of ``psi``; returns
  a boolean.  Used for the innocuous formula psi2 and for label bodies.
* :func:`generate` — enumerate the substitutions (extending a base
  ``theta``) under which the node satisfies ``psi``.  Used for the enabling
  formula psi1; this is the paper's "the flow function adds the substitution
  that caused psi1 to be true".  Enumeration is driven by statement-pattern
  matching, falling back to the finite domains of the procedure (its
  variables, constants, expressions, and indices) for pattern variables not
  determined by any statement pattern.

Both modes run a guard through closures built once per guard object (see
"Compiled evaluation" below and docs/ENGINE.md), not by walking its tree
at every evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.il.ast import (
    BINARY_OPS,
    UNARY_OPS,
    Assign,
    Call,
    Const,
    Expr,
    IfGoto,
    Return,
    Var,
)
from repro.cobalt.patterns import (
    ConstPat,
    ExprPat,
    IndexPat,
    OpPat,
    PStmt,
    PatternError,
    Subst,
    VarPat,
    Wildcard,
    freeze_subst,
    instantiate_expr,
    match_stmt,
)

if TYPE_CHECKING:
    from repro.cobalt.labels import NodeCtx
    from repro.il.program import Procedure

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Guard AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GTrue:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class GFalse:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class GNot:
    body: "Guard"

    def __str__(self) -> str:
        return f"!{self.body}"


@dataclass(frozen=True)
class GAnd:
    parts: Tuple["Guard", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def __str__(self) -> str:
        return "(" + " && ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class GOr:
    parts: Tuple["Guard", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def __str__(self) -> str:
        return "(" + " || ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class GLabel:
    """A label predicate ``l(t1, ..., tn)``.

    ``stmt(p)`` is the built-in statement label; its single argument is a
    pattern statement.  Other labels take extended-IL term arguments.
    """

    name: str
    args: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class GEq:
    """Term equality ``t1 = t2`` between extended-IL fragments."""

    lhs: object
    rhs: object

    def __str__(self) -> str:
        return f"{self.lhs} == {self.rhs}"


@dataclass(frozen=True)
class GCase:
    """``case currStmt of p1 -> g1 ... else -> g endcase``.

    Arms are tried in order; the first whose pattern matches the current
    statement selects its guard, with the pattern's bindings in scope.
    """

    arms: Tuple[Tuple[PStmt, "Guard"], ...]
    default: "Guard"

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(tuple(a) for a in self.arms))

    def __str__(self) -> str:
        arms = "; ".join(f"{p} -> {g}" for p, g in self.arms)
        return f"case currStmt of {arms}; else -> {self.default} endcase"


Guard = object  # union of the above


def gand(*parts: Guard) -> Guard:
    flat = [p for p in parts if not isinstance(p, GTrue)]
    if any(isinstance(p, GFalse) for p in flat):
        return GFalse()
    if not flat:
        return GTrue()
    return flat[0] if len(flat) == 1 else GAnd(tuple(flat))


def gor(*parts: Guard) -> Guard:
    flat = [p for p in parts if not isinstance(p, GFalse)]
    if any(isinstance(p, GTrue) for p in flat):
        return GTrue()
    if not flat:
        return GFalse()
    return flat[0] if len(flat) == 1 else GOr(tuple(flat))


def guard_pattern_vars(guard: Guard) -> FrozenSet[str]:
    """All pattern-variable names occurring in a guard."""
    return frozenset(leaf.name for leaf in guard_leaves(guard))  # type: ignore[attr-defined]


def guard_leaves(guard: Guard) -> FrozenSet[object]:
    """All pattern-variable *leaves* (with their kinds) in a guard."""
    leaves: set = set()

    def walk(g: Guard) -> None:
        if isinstance(g, (GTrue, GFalse)):
            return
        if isinstance(g, GNot):
            walk(g.body)
        elif isinstance(g, (GAnd, GOr)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, GLabel):
            for a in g.args:
                leaves.update(_leaves_of(a))
        elif isinstance(g, GEq):
            leaves.update(_leaves_of(g.lhs))
            leaves.update(_leaves_of(g.rhs))
        elif isinstance(g, GCase):
            walk(g.default)
            for pattern, arm in g.arms:
                leaves.update(_leaves_of(pattern))
                walk(arm)
        else:
            raise TypeError(f"not a guard: {g!r}")

    walk(guard)
    return frozenset(leaves)


def _leaves_of(t: object) -> Iterable[object]:
    from repro.il.ast import (
        AddrOf,
        Assign,
        BinOp,
        Call,
        Decl,
        Deref,
        DerefLhs,
        IfGoto,
        New,
        Return,
        Skip,
        UnOp,
        VarLhs,
    )

    if isinstance(t, (VarPat, ConstPat, ExprPat, OpPat, IndexPat)):
        yield t
    elif isinstance(t, (Var, Const, Wildcard, Skip, str, int)) or t is None:
        return
    elif isinstance(t, (Decl, New, Return)):
        yield from _leaves_of(t.var)
    elif isinstance(t, Assign):
        yield from _leaves_of(t.lhs)
        yield from _leaves_of(t.rhs)
    elif isinstance(t, (VarLhs, DerefLhs, Deref, AddrOf)):
        yield from _leaves_of(t.var)
    elif isinstance(t, Call):
        yield from _leaves_of(t.var)
        yield from _leaves_of(t.arg)
    elif isinstance(t, IfGoto):
        yield from _leaves_of(t.cond)
        yield from _leaves_of(t.then_index)
        yield from _leaves_of(t.else_index)
    elif isinstance(t, UnOp):
        yield from _leaves_of(t.op)
        yield from _leaves_of(t.arg)
    elif isinstance(t, BinOp):
        yield from _leaves_of(t.op)
        yield from _leaves_of(t.left)
        yield from _leaves_of(t.right)
    else:
        raise PatternError(f"unexpected term {t!r}")


# ---------------------------------------------------------------------------
# Instantiating guard terms
# ---------------------------------------------------------------------------


def instantiate_term(t: object, theta: Subst) -> object:
    """Resolve a guard term to a concrete fragment under ``theta``."""
    if isinstance(t, VarPat):
        value = theta.get(t.name)
        if value is None:
            raise PatternError(f"unbound pattern variable {t.name}")
        return value
    if isinstance(t, (ConstPat, ExprPat, OpPat, IndexPat)):
        value = theta.get(t.name)
        if value is None:
            raise PatternError(f"unbound pattern variable {t.name}")
        return value
    if isinstance(t, (Var, Const, str, int)):
        return t
    # Composite expressions (e.g. &X inside a label argument).
    return instantiate_expr(t, theta)


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------
#
# Each guard is translated once into nested closures; ``check`` and
# ``generate`` then look the closure up and call it.  The caches are keyed
# by ``id(guard)`` because frozen-dataclass guards re-hash their whole tree
# on every dict probe; the value pins the guard, so its id cannot be
# recycled while the entry lives, and the ``is`` test on lookup rejects an
# entry left by any other object.  Each cache is cleared when it reaches
# ``_CACHE_LIMIT`` entries.

CheckFn = Callable[[Subst, "NodeCtx"], bool]
GenFn = Callable[[Subst, "NodeCtx"], List[Subst]]

_CACHE_LIMIT = 1 << 10
_CHECK_CACHE: Dict[int, Tuple[Guard, CheckFn]] = {}
_GEN_CACHE: Dict[int, Tuple[Guard, Tuple[GenFn, CheckFn, FrozenSet[object]]]] = {}


def _cached(cache: Dict[int, Tuple[Guard, T]], guard: Guard, build: Callable[[Guard], T]) -> T:
    entry = cache.get(id(guard))
    if entry is not None and entry[0] is guard:
        return entry[1]
    value = build(guard)
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[id(guard)] = (guard, value)
    return value


def _term_fn(t: object) -> Callable[[Subst], object]:
    """``instantiate_term`` specialised to one term."""
    if isinstance(t, (VarPat, ConstPat, ExprPat, OpPat, IndexPat)):
        name = t.name

        def bound(theta: Subst) -> object:
            value = theta.get(name)
            if value is None:
                raise PatternError(f"unbound pattern variable {name}")
            return value

        return bound
    if isinstance(t, (Var, Const, str, int)):
        return lambda theta: t
    return lambda theta: instantiate_expr(t, theta)


def _arms_by_type(guard: GCase, compile_arm: Callable) -> Dict[type, Tuple[Tuple[PStmt, object], ...]]:
    """The case's arms grouped by statement class, in order: an arm can only
    match a statement of its pattern's class (see ``match_stmt``)."""
    arms: Dict[type, List[Tuple[PStmt, object]]] = {}
    for pattern, arm in guard.arms:
        arms.setdefault(type(pattern), []).append((pattern, compile_arm(arm)))
    return {kind: tuple(group) for kind, group in arms.items()}


def _compile_check(guard: Guard) -> CheckFn:
    if isinstance(guard, GTrue):
        return lambda theta, ctx: True
    if isinstance(guard, GFalse):
        return lambda theta, ctx: False
    if isinstance(guard, GNot):
        body = _compile_check(guard.body)
        return lambda theta, ctx: not body(theta, ctx)
    if isinstance(guard, GAnd):
        parts = tuple(map(_compile_check, guard.parts))

        def conj(theta: Subst, ctx: "NodeCtx") -> bool:
            for part in parts:
                if not part(theta, ctx):
                    return False
            return True

        return conj
    if isinstance(guard, GOr):
        parts = tuple(map(_compile_check, guard.parts))

        def disj(theta: Subst, ctx: "NodeCtx") -> bool:
            for part in parts:
                if part(theta, ctx):
                    return True
            return False

        return disj
    if isinstance(guard, GLabel):
        if guard.name == "stmt":
            pattern = guard.args[0]
            kind = type(pattern)
            return lambda theta, ctx: (
                type(ctx.stmt) is kind and match_stmt(pattern, ctx.stmt, theta) is not None
            )
        name = guard.name
        args = tuple(map(_term_fn, guard.args))

        def label(theta: Subst, ctx: "NodeCtx") -> bool:
            inst = tuple([arg(theta) for arg in args])
            return ctx.registry.lookup(name).eval(inst, ctx)

        return label
    if isinstance(guard, GEq):
        lhs, rhs = _term_fn(guard.lhs), _term_fn(guard.rhs)
        return lambda theta, ctx: lhs(theta) == rhs(theta)
    if isinstance(guard, GCase):
        arms = _arms_by_type(guard, _compile_check)
        default = _compile_check(guard.default)

        def case(theta: Subst, ctx: "NodeCtx") -> bool:
            stmt = ctx.stmt
            for pattern, arm in arms.get(type(stmt), ()):
                extended = match_stmt(pattern, stmt, theta)
                if extended is not None:
                    return arm(extended, ctx)
            return default(theta, ctx)

        return case
    raise TypeError(f"not a guard: {guard!r}")


def _compile_gen(guard: Guard) -> Optional[GenFn]:
    """Propose (possibly partial) bindings; final filtering is by check().

    ``None`` stands for the identity proposal ``[theta]`` of every guard
    that binds nothing by itself."""
    if isinstance(guard, GLabel) and guard.name == "stmt":
        pattern = guard.args[0]
        kind = type(pattern)

        def stmt(theta: Subst, ctx: "NodeCtx") -> List[Subst]:
            if type(ctx.stmt) is not kind:
                return []
            extended = match_stmt(pattern, ctx.stmt, theta)
            return [extended] if extended is not None else []

        return stmt
    if isinstance(guard, (GTrue, GFalse, GLabel, GEq, GNot)):
        return None
    if isinstance(guard, GAnd):
        parts = tuple(fn for fn in map(_compile_gen, guard.parts) if fn is not None)
        if not parts:
            return None

        def conj(theta: Subst, ctx: "NodeCtx") -> List[Subst]:
            thetas = [theta]
            for part in parts:
                thetas = [t2 for t in thetas for t2 in part(t, ctx)]
            return thetas

        return conj
    if isinstance(guard, GOr):
        parts = tuple(map(_compile_gen, guard.parts))

        def disj(theta: Subst, ctx: "NodeCtx") -> List[Subst]:
            out: List[Subst] = []
            for part in parts:
                if part is None:
                    out.append(theta)
                else:
                    out.extend(part(theta, ctx))
            return out

        return disj
    if isinstance(guard, GCase):
        arms = _arms_by_type(guard, _compile_gen)
        default = _compile_gen(guard.default)

        def case(theta: Subst, ctx: "NodeCtx") -> List[Subst]:
            stmt = ctx.stmt
            for pattern, arm in arms.get(type(stmt), ()):
                extended = match_stmt(pattern, stmt, theta)
                if extended is not None:
                    return [extended] if arm is None else arm(extended, ctx)
            return [theta] if default is None else default(theta, ctx)

        return case
    raise TypeError(f"not a guard: {guard!r}")


def _propose_unchanged(theta: Subst, ctx: "NodeCtx") -> List[Subst]:
    return [theta]


def _compile_generate(guard: Guard) -> Tuple[GenFn, CheckFn, FrozenSet[object]]:
    gen = _compile_gen(guard) or _propose_unchanged
    return gen, _cached(_CHECK_CACHE, guard, _compile_check), guard_leaves(guard)


def check(guard: Guard, theta: Subst, ctx: "NodeCtx") -> bool:
    """Evaluate ``iota |=theta psi`` with a fully binding ``theta``."""
    return _cached(_CHECK_CACHE, guard, _compile_check)(theta, ctx)


def generate(guard: Guard, base: Subst, ctx: "NodeCtx") -> List[Subst]:
    """All substitutions theta extending ``base`` with ``iota |=theta psi``.

    The returned substitutions bind exactly the pattern variables of
    ``guard`` (plus whatever ``base`` already bound); variables that cannot
    be determined from statement patterns are enumerated over the finite
    domains of the enclosing procedure.
    """
    gen, holds, needed = _cached(_GEN_CACHE, guard, _compile_generate)
    out: List[Subst] = []
    seen: set = set()
    for theta in gen(dict(base), ctx):
        missing = [leaf for leaf in needed if leaf.name not in theta]  # type: ignore[attr-defined]
        for completed in _enumerate(missing, theta, ctx):
            if holds(completed, ctx):
                key = freeze_subst(completed)
                if key not in seen:
                    seen.add(key)
                    out.append(completed)
    return out


def _enumerate(missing: Sequence[object], theta: Subst, ctx: "NodeCtx") -> Iterable[Subst]:
    if not missing:
        yield theta
        return
    domains = ctx.domains
    if domains is None:
        domains = ctx.domains = enumeration_domains(ctx.proc)
    names = [leaf.name for leaf in missing]  # type: ignore[attr-defined]
    for combo in itertools.product(*[domains[type(leaf)] for leaf in missing]):
        extended = dict(theta)
        extended.update(zip(names, combo))
        yield extended


Domains = Dict[type, Tuple[object, ...]]


def enumeration_domains(proc: "Procedure") -> Domains:
    """The values ``generate`` enumerates a pattern variable over, by leaf
    kind, when no statement pattern binds it: the procedure's variables,
    constants, expressions and indices, and every operator."""
    exprs: Dict[Expr, None] = {}
    for s in proc.stmts:
        if isinstance(s, Assign):
            exprs[s.rhs] = None
        elif isinstance(s, Call):
            exprs[s.arg] = None
        elif isinstance(s, IfGoto):
            exprs[s.cond] = None
        elif isinstance(s, Return):
            exprs[s.var] = None
    return {
        VarPat: tuple(sorted((Var(v) for v in proc.mentioned_vars()), key=str)),
        ConstPat: tuple(sorted((Const(c) for c in proc.constants()), key=lambda c: c.value)),
        ExprPat: tuple(exprs),
        IndexPat: tuple(proc.indices()),
        OpPat: BINARY_OPS + UNARY_OPS,
    }
