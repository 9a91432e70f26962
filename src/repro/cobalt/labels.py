"""Labels: the properties CFG nodes are labeled with (paper section 2.1.3).

Three kinds of label definitions exist:

* **case labels** — defined in the Cobalt DSL itself by a predicate over the
  distinguished variable ``currStmt``, e.g.::

      syntacticDef(Y) =  case currStmt of
                           decl X   -> X = Y
                           X := E   -> X = Y
                           ...
                         else -> false endcase

  Case labels are executable by the engine and automatically translated to
  prover axioms by :mod:`repro.verify.labels2logic`.

* **native labels** — labels whose definition quantifies over the variables
  of an expression (e.g. ``unchanged(E)``, "no variable mentioned in E is
  modified").  The paper desugars these with ellipses/quantified variables;
  we implement them with a Python evaluator plus a hand-written logic
  translation, both registered here.

* **semantic labels** — labels *defined by pure analyses* (section 2.4).
  Their engine meaning is a per-node labeling computed by running the
  analysis; their logical meaning is the analysis's witness.

The registry also hosts the built-in term predicates used inside label
bodies (``usesVar``, ``definesVar``, ``exprUses``, ``exprMentions``,
``pureExpr``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.il.ast import (
    AddrOf,
    Assign,
    BinOp,
    Call,
    Const,
    Decl,
    Deref,
    DerefLhs,
    Expr,
    New,
    Skip,
    Stmt,
    UnOp,
    Var,
    VarLhs,
    expr_reads,
    expr_vars,
    stmt_defined_var,
    stmt_used_vars,
)
from repro.il.cfg import Cfg
from repro.il.program import Procedure
from repro.logic.intern import memoized, register_memo
from repro.cobalt.guards import (
    GAnd,
    GCase,
    GEq,
    GFalse,
    GLabel,
    GNot,
    GOr,
    GTrue,
    Domains,
    Guard,
    check,
)
from repro.cobalt.patterns import (
    ConstPat,
    ExprPat,
    PStmt,
    Subst,
    VarPat,
    Wildcard,
    parse_pattern_stmt,
)


class LabelError(Exception):
    """Raised for undefined labels or arity mismatches."""


# ---------------------------------------------------------------------------
# Node context and semantic labelings
# ---------------------------------------------------------------------------


@dataclass
class Labeling:
    """Semantic labels attached to CFG nodes by pure analyses.

    ``entries[index]`` is a set of ``(label_name, instantiated_args)``.
    """

    entries: Dict[int, Set[Tuple[str, Tuple[object, ...]]]] = field(default_factory=dict)

    def add(self, index: int, name: str, args: Tuple[object, ...]) -> None:
        self.entries.setdefault(index, set()).add((name, tuple(args)))

    def has(self, index: int, name: str, args: Tuple[object, ...]) -> bool:
        return (name, tuple(args)) in self.entries.get(index, ())

    def merged_with(self, other: "Labeling") -> "Labeling":
        merged = Labeling({k: set(v) for k, v in self.entries.items()})
        for index, labels in other.entries.items():
            merged.entries.setdefault(index, set()).update(labels)
        return merged


@dataclass
class NodeCtx:
    """Evaluation context: one node of a labeled CFG.

    ``stmt`` is resolved once, when the context is made.  ``domains`` are
    the procedure's enumeration domains (``guards.enumeration_domains``);
    an engine shares one copy among all contexts of a procedure, and
    ``generate`` fills them in on first use when they were not given."""

    proc: Procedure
    cfg: Cfg
    index: int
    registry: "LabelRegistry"
    labeling: Labeling = field(default_factory=Labeling)
    domains: Optional[Domains] = field(default=None, repr=False, compare=False)
    stmt: Stmt = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.stmt = self.proc.stmt_at(self.index)

    def at(self, index: int) -> "NodeCtx":
        return NodeCtx(self.proc, self.cfg, index, self.registry, self.labeling, self.domains)


# ---------------------------------------------------------------------------
# Label definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLabel:
    """A label defined by a guard over ``currStmt`` (usually a GCase)."""

    name: str
    params: Tuple[str, ...]
    body: Guard

    def eval(self, args: Tuple[object, ...], ctx: NodeCtx) -> bool:
        if len(args) != len(self.params):
            raise LabelError(f"{self.name} expects {len(self.params)} args, got {len(args)}")
        theta: Subst = dict(zip(self.params, args))
        return check(self.body, theta, ctx)


@dataclass(frozen=True)
class NativeLabel:
    """A label with a bespoke evaluator (and a bespoke logic translation,
    registered with the checker separately)."""

    name: str
    arity: int
    fn: Callable[[Tuple[object, ...], NodeCtx], bool]

    def eval(self, args: Tuple[object, ...], ctx: NodeCtx) -> bool:
        if len(args) != self.arity:
            raise LabelError(f"{self.name} expects {self.arity} args, got {len(args)}")
        return self.fn(args, ctx)


@dataclass(frozen=True)
class SemanticLabel:
    """A label whose instances are computed by a pure analysis.

    Lookup consults the node's :class:`Labeling`; running the defining
    analysis is the engine's job (see :mod:`repro.cobalt.engine`).
    """

    name: str
    arity: int

    def eval(self, args: Tuple[object, ...], ctx: NodeCtx) -> bool:
        return ctx.labeling.has(ctx.index, self.name, tuple(args))


LabelDef = object  # CaseLabel | NativeLabel | SemanticLabel


class LabelRegistry:
    """Maps label names to their definitions."""

    def __init__(self) -> None:
        self.defs: Dict[str, LabelDef] = {}
        #: Set on the shared :func:`standard_registry`: ``define`` refuses,
        #: so no caller changes the labels every other caller sees.
        self.frozen = False

    def define(self, label: LabelDef) -> LabelDef:
        name = label.name  # type: ignore[attr-defined]
        if self.frozen:
            raise LabelError(
                f"cannot define {name}: this registry is shared; "
                "define labels on a copy()"
            )
        if name in self.defs:
            raise LabelError(f"label {name} already defined")
        self.defs[name] = label
        return label

    def lookup(self, name: str) -> LabelDef:
        if name not in self.defs:
            raise LabelError(f"undefined label {name}")
        return self.defs[name]

    def copy(self) -> "LabelRegistry":
        out = LabelRegistry()
        out.defs = dict(self.defs)
        return out


# ---------------------------------------------------------------------------
# Built-in term predicates (usable inside label bodies and guards)
# ---------------------------------------------------------------------------


def _uses_var(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    (var,) = args
    assert isinstance(var, Var)
    return var.name in stmt_used_vars(ctx.stmt)


def _defines_var(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    (var,) = args
    assert isinstance(var, Var)
    return stmt_defined_var(ctx.stmt) == var.name


def _expr_uses(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    expr, var = args
    assert isinstance(var, Var)
    return var.name in expr_reads(expr)  # type: ignore[arg-type]


def _expr_mentions(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    expr, var = args
    assert isinstance(var, Var)
    return var.name in expr_vars(expr)  # type: ignore[arg-type]


def is_pure_expr(expr: Expr) -> bool:
    """True when ``expr`` reads no memory through pointers (no deref)."""
    return not isinstance(expr, Deref)


def _pure_expr(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    (expr,) = args
    return is_pure_expr(expr)  # type: ignore[arg-type]


def _compound_expr(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    """True for computations (operator applications, loads) — not bare
    variables or constants.  Restricting CSE to compound expressions keeps
    it from inverting copy propagation (and ping-ponging with it)."""
    (expr,) = args
    return isinstance(expr, (BinOp, UnOp, Deref))


def _is_addr_of(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    expr, var = args
    assert isinstance(var, Var)
    return isinstance(expr, AddrOf) and expr.var == var


# ---------------------------------------------------------------------------
# The standard label library (paper sections 2.1.3, 2.4)
# ---------------------------------------------------------------------------


def _unchanged(args: Tuple[object, ...], ctx: NodeCtx) -> bool:
    """``unchanged(E)``: the statement does not redefine the contents of any
    variable mentioned in E (conservative: if E reads memory through a
    pointer, anything that could write memory invalidates it)."""
    (expr,) = args
    stmt = ctx.stmt
    may_def = ctx.registry.lookup("mayDef")
    for name in expr_vars(expr):  # type: ignore[arg-type]
        if may_def.eval((Var(name),), ctx):  # type: ignore[attr-defined]
            return False
    if not is_pure_expr(expr):  # type: ignore[arg-type]
        # E reads a heap/stack cell; any store-writing statement may change it.
        if isinstance(stmt, (Assign, New, Call)):
            return False
    return True


#: The one standard registry of this process (a registered memo, so
#: ``structural_reference`` builds a fresh one per call).
_STANDARD_MEMO: Dict[tuple, LabelRegistry] = register_memo({})


def standard_registry() -> LabelRegistry:
    """The label library every optimization in :mod:`repro.opts` builds on.

    Contains the built-in term predicates, the paper's ``syntacticDef``,
    conservative ``mayDef``/``mayUse``, ``unchanged``, the ``notTainted``
    semantic label (populated by the taintedness pure analysis), and the
    pointer-aware ``mayDefPT``/``mayUsePT`` from section 2.4.

    Built once per process and shared, hence frozen: a caller that adds
    labels extends a :meth:`LabelRegistry.copy`.  One shared object is
    also what lets identity-keyed memos (compiled guards, obligations) hit
    across checkers and engines.
    """
    return memoized(_STANDARD_MEMO, 1, (), _build_standard_registry)


def _build_standard_registry() -> LabelRegistry:
    reg = LabelRegistry()

    reg.define(NativeLabel("usesVar", 1, _uses_var))
    reg.define(NativeLabel("definesVar", 1, _defines_var))
    reg.define(NativeLabel("exprUses", 2, _expr_uses))
    reg.define(NativeLabel("exprMentions", 2, _expr_mentions))
    reg.define(NativeLabel("pureExpr", 1, _pure_expr))
    reg.define(NativeLabel("compoundExpr", 1, _compound_expr))
    reg.define(NativeLabel("isAddrOf", 2, _is_addr_of))

    y = VarPat("Y")

    # syntacticDef(Y): the statement declares or syntactically assigns Y.
    reg.define(
        CaseLabel(
            "syntacticDef",
            ("Y",),
            GCase(
                (
                    (parse_pattern_stmt("decl X"), GEq(VarPat("X"), y)),
                    (parse_pattern_stmt("X := new"), GEq(VarPat("X"), y)),
                    (parse_pattern_stmt("X := P(...)"), GEq(VarPat("X"), y)),
                    (parse_pattern_stmt("X := E"), GEq(VarPat("X"), y)),
                ),
                GFalse(),
            ),
        )
    )

    # mayDef(Y), conservative (example in section 2.1.3): pointer stores and
    # calls may define anything.
    reg.define(
        CaseLabel(
            "mayDef",
            ("Y",),
            GCase(
                (
                    (parse_pattern_stmt("*X := E"), GTrue()),
                    (parse_pattern_stmt("X := P(...)"), GTrue()),
                ),
                GLabel("syntacticDef", (y,)),
            ),
        )
    )

    # mayUse(X), conservative: pointer loads (through either assignment
    # form) and calls may read anything; otherwise a syntactic use.
    x = VarPat("X")
    reg.define(
        CaseLabel(
            "mayUse",
            ("X",),
            GCase(
                (
                    (parse_pattern_stmt("Z := *W"), GTrue()),
                    (parse_pattern_stmt("*Z := *W"), GTrue()),
                    (parse_pattern_stmt("Z := P(...)"), GTrue()),
                ),
                GLabel("usesVar", (x,)),
            ),
        )
    )

    reg.define(NativeLabel("unchanged", 1, _unchanged))

    # notTainted(X): semantic label populated by the taintedness analysis
    # (example 4 in the paper).
    reg.define(SemanticLabel("notTainted", 1))

    # hasConst(Y, C): semantic label populated by the constant-value
    # analysis (repro.opts.constbranch); means eta(Y) = C at the node.
    reg.define(SemanticLabel("hasConst", 2))

    # mayDefPT(Y): the pointer-aware refinement from section 2.4.
    reg.define(
        CaseLabel(
            "mayDefPT",
            ("Y",),
            GCase(
                (
                    (parse_pattern_stmt("*X := E"), GNot(GLabel("notTainted", (y,)))),
                    (
                        parse_pattern_stmt("X := P(...)"),
                        GOr((GEq(VarPat("X"), y), GNot(GLabel("notTainted", (y,))))),
                    ),
                ),
                GLabel("syntacticDef", (y,)),
            ),
        )
    )

    # cellUnchanged(W): the statement cannot change the contents of the cell
    # *W.  Pointer stores and calls always can; an allocation or a direct
    # assignment ``Z := ...`` can only when W might point to Z, i.e. unless
    # notTainted(Z).  This is the label whose naive version (missing the
    # direct-assignment case) is the paper's section 6 debugging story.
    z = VarPat("Z")
    reg.define(
        CaseLabel(
            "cellUnchanged",
            ("W",),
            GCase(
                (
                    (parse_pattern_stmt("*Z := E"), GFalse()),
                    (parse_pattern_stmt("Z := P(...)"), GFalse()),
                    (parse_pattern_stmt("Z := new"), GLabel("notTainted", (z,))),
                    (parse_pattern_stmt("Z := E"), GLabel("notTainted", (z,))),
                ),
                GTrue(),
            ),
        )
    )

    # mayUsePT(X): pointer loads and calls only read X if X may be pointed to.
    reg.define(
        CaseLabel(
            "mayUsePT",
            ("X",),
            GCase(
                (
                    (
                        parse_pattern_stmt("Z := *W"),
                        GOr(
                            (
                                GLabel("usesVar", (x,)),
                                GNot(GLabel("notTainted", (x,))),
                            )
                        ),
                    ),
                    (
                        parse_pattern_stmt("*Z := *W"),
                        GOr(
                            (
                                GLabel("usesVar", (x,)),
                                GNot(GLabel("notTainted", (x,))),
                            )
                        ),
                    ),
                    (
                        parse_pattern_stmt("Z := P(...)"),
                        GOr(
                            (
                                GLabel("usesVar", (x,)),
                                GNot(GLabel("notTainted", (x,))),
                            )
                        ),
                    ),
                ),
                GLabel("usesVar", (x,)),
            ),
        )
    )

    reg.frozen = True
    return reg
