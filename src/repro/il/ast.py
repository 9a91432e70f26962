"""Abstract syntax of the intermediate language (paper section 3.1).

The grammar reproduced here::

    Progs        pi  ::= pr ... pr
    Procs        pr  ::= p(x) { s; ...; s; }
    Stmts        s   ::= decl x | skip | lhs := e | x := new |
                         x := p(b) | if b goto i else i | return x
    Exprs        e   ::= b | *x | &x | op b ... b
    Locatables   lhs ::= x | *x
    Base exprs   b   ::= x | c
    Consts       c   ::= integer constants

All AST nodes are immutable (frozen dataclasses) so they can be used as
dictionary keys, shared between programs, and safely substituted into by the
pattern machinery in :mod:`repro.cobalt.patterns`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A reference to a local variable (a base expression)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """An integer constant (a base expression)."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Deref:
    """A pointer dereference ``*x``."""

    var: Var

    def __str__(self) -> str:
        return f"*{self.var}"


@dataclass(frozen=True)
class AddrOf:
    """Taking the address of a local variable, ``&x``."""

    var: Var

    def __str__(self) -> str:
        return f"&{self.var}"


@dataclass(frozen=True)
class UnOp:
    """A unary operator applied to a base expression, e.g. ``neg a``."""

    op: str
    arg: "BaseExpr"

    def __str__(self) -> str:
        return f"{self.op} {self.arg}"


@dataclass(frozen=True)
class BinOp:
    """A binary operator applied to base expressions, e.g. ``a + b``."""

    op: str
    left: "BaseExpr"
    right: "BaseExpr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


BaseExpr = Union[Var, Const]
Expr = Union[Var, Const, Deref, AddrOf, UnOp, BinOp]

#: Binary operators understood by the interpreter and constant folder.
BINARY_OPS: Tuple[str, ...] = (
    "+",
    "-",
    "*",
    "/",
    "%",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "&&",
    "||",
)

#: Unary operators understood by the interpreter and constant folder.
UNARY_OPS: Tuple[str, ...] = ("neg", "not")


# ---------------------------------------------------------------------------
# Locatables (assignment left-hand sides)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarLhs:
    """A local variable used as an assignment target."""

    var: Var

    def __str__(self) -> str:
        return str(self.var)


@dataclass(frozen=True)
class DerefLhs:
    """A pointer store target ``*x``."""

    var: Var

    def __str__(self) -> str:
        return f"*{self.var}"


Lhs = Union[VarLhs, DerefLhs]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decl:
    """``decl x`` — declare (and allocate a cell for) local variable ``x``."""

    var: Var

    def __str__(self) -> str:
        return f"decl {self.var}"


@dataclass(frozen=True)
class Skip:
    """``skip`` — a no-op.  Statement removal rewrites to ``skip``."""

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class Assign:
    """``lhs := e`` — assignment to a variable or through a pointer."""

    lhs: Lhs
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs} := {self.rhs}"


@dataclass(frozen=True)
class New:
    """``x := new`` — allocate a fresh heap cell and store its location."""

    var: Var

    def __str__(self) -> str:
        return f"{self.var} := new"


@dataclass(frozen=True)
class Call:
    """``x := p(b)`` — call procedure ``p`` with one argument."""

    var: Var
    proc: str
    arg: BaseExpr

    def __str__(self) -> str:
        return f"{self.var} := {self.proc}({self.arg})"


@dataclass(frozen=True)
class IfGoto:
    """``if b goto i else j`` — conditional branch to statement indices."""

    cond: BaseExpr
    then_index: int
    else_index: int

    def __str__(self) -> str:
        return f"if {self.cond} goto {self.then_index} else {self.else_index}"


@dataclass(frozen=True)
class Return:
    """``return x`` — return the value of ``x`` to the caller."""

    var: Var

    def __str__(self) -> str:
        return f"return {self.var}"


Stmt = Union[Decl, Skip, Assign, New, Call, IfGoto, Return]

STMT_TYPES = (Decl, Skip, Assign, New, Call, IfGoto, Return)
EXPR_TYPES = (Var, Const, Deref, AddrOf, UnOp, BinOp)


def expr_vars(e: Expr) -> frozenset[str]:
    """The set of variable names *read* when evaluating ``e``.

    Note that ``&x`` reads no variable (it only mentions its location), but we
    still report ``x`` as *mentioned*; use :func:`expr_reads` for the precise
    read set.
    """
    if isinstance(e, Var):
        return frozenset([e.name])
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, (Deref, AddrOf)):
        return frozenset([e.var.name])
    if isinstance(e, UnOp):
        return expr_vars(e.arg)
    if isinstance(e, BinOp):
        return expr_vars(e.left) | expr_vars(e.right)
    raise TypeError(f"not an expression: {e!r}")


def expr_reads(e: Expr) -> frozenset[str]:
    """The set of variable names whose *contents* are read by ``e``.

    Differs from :func:`expr_vars` on ``&x``, which mentions ``x`` without
    reading its contents.
    """
    if isinstance(e, AddrOf):
        return frozenset()
    return expr_vars(e)


def stmt_defined_var(s: Stmt) -> str | None:
    """The variable syntactically assigned by ``s``, if any.

    Pointer stores (``*x := e``) define no variable *syntactically*; they may
    define any tainted variable, which is the business of the ``mayDef``
    label, not of this helper.
    """
    if isinstance(s, Assign) and isinstance(s.lhs, VarLhs):
        return s.lhs.var.name
    if isinstance(s, (New, Call)):
        return s.var.name
    if isinstance(s, Decl):
        return s.var.name
    return None


def stmt_used_vars(s: Stmt) -> frozenset[str]:
    """Variables whose contents are read when executing ``s``."""
    if isinstance(s, Assign):
        used = expr_reads(s.rhs)
        if isinstance(s.lhs, DerefLhs):
            used |= frozenset([s.lhs.var.name])
        return used
    if isinstance(s, Call):
        return expr_reads(s.arg)
    if isinstance(s, IfGoto):
        return expr_reads(s.cond)
    if isinstance(s, Return):
        return frozenset([s.var.name])
    return frozenset()


def stmt_mentioned_vars(s: Stmt) -> frozenset[str]:
    """All variable names occurring anywhere in ``s``."""
    mentioned = stmt_used_vars(s)
    if isinstance(s, Assign):
        mentioned |= expr_vars(s.rhs)
        mentioned |= frozenset([s.lhs.var.name])
    defined = stmt_defined_var(s)
    if defined is not None:
        mentioned |= frozenset([defined])
    return mentioned
