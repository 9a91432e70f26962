"""The extended intermediate language: IL syntax with pattern variables.

Section 3.2.1 of the paper extends every production of the IL grammar with a
pattern-variable case.  Pattern statements are matched against concrete
statements of the procedure being optimized, producing substitutions
``theta`` that map pattern variables to program fragments of the matching
kind:

* :class:`VarPat`   — program variables (``X``, ``Y``, ...)
* :class:`ConstPat` — integer constants (``C``)
* :class:`ExprPat`  — whole expressions (``E``)
* :class:`OpPat`    — operator names
* :class:`IndexPat` — branch-target statement indices (``I1``, ``I2``)
* :class:`Wildcard` — the paper's ``...``: matches anything, binds nothing

A pattern statement is represented with the ordinary IL constructors whose
leaves may additionally be pattern variables; this module provides matching
(:func:`match_stmt`) and instantiation (:func:`instantiate_stmt`) and a
small concrete syntax (:func:`parse_pattern_stmt`) used by the Cobalt
parser, e.g. ``"X := Y"``, ``"*X := Z"``, ``"X := ?E"``, ``"return ..."``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.il.ast import (
    AddrOf,
    Assign,
    BaseExpr,
    BinOp,
    Call,
    Const,
    Decl,
    Deref,
    DerefLhs,
    Expr,
    IfGoto,
    New,
    Return,
    Skip,
    Stmt,
    UnOp,
    Var,
    VarLhs,
)
from repro.il.parser import ParseError


@dataclass(frozen=True)
class VarPat:
    """Matches any program variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstPat:
    """Matches any integer constant."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ExprPat:
    """Matches any whole expression."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class OpPat:
    """Matches any operator name."""

    name: str

    def __str__(self) -> str:
        return f"op:{self.name}"


@dataclass(frozen=True)
class IndexPat:
    """Matches any branch-target index."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class Wildcard:
    """The paper's ``...``: matches anything without binding."""

    def __str__(self) -> str:
        return "..."


PatternLeaf = Union[VarPat, ConstPat, ExprPat, OpPat, IndexPat, Wildcard]

#: A pattern statement/expression is an IL fragment whose leaves may be
#: pattern variables.  (Python's structural typing lets us reuse the IL
#: dataclasses directly.)
PStmt = Stmt
PExpr = Expr

#: A substitution maps pattern-variable names to matched fragments:
#: Var | Const | Expr | int (indices) | str (operators).
Subst = Dict[str, object]

FrozenSubst = Tuple[Tuple[str, object], ...]


def freeze_subst(theta: Mapping[str, object]) -> FrozenSubst:
    """A hashable view of a substitution (for dataflow fact sets)."""
    return tuple(sorted(theta.items(), key=lambda kv: kv[0]))


def thaw_subst(frozen: FrozenSubst) -> Subst:
    return dict(frozen)


#: Interned ordering keys: ``repr`` of a FrozenSubst is a stable total
#: order over the substitutions of a fact set, but recomputing it for
#: every sort on the engine's hot path is wasteful — the same frozen
#: substitutions recur across nodes and fixpoint iterations.  The table
#: is bounded so pathological workloads cannot grow it without limit.
_ORDER_KEYS: Dict[FrozenSubst, str] = {}
_ORDER_KEYS_LIMIT = 1 << 20


def subst_order_key(frozen: FrozenSubst) -> str:
    """A deterministic sort key for frozen substitutions (interned).

    Equal substitutions always produce equal keys, so any two engines
    sorting the same fact set enumerate it in the same order — the
    property the deterministic-``Delta`` guarantee rests on.
    """
    key = _ORDER_KEYS.get(frozen)
    if key is None:
        if len(_ORDER_KEYS) >= _ORDER_KEYS_LIMIT:
            _ORDER_KEYS.clear()
        key = repr(frozen)
        _ORDER_KEYS[frozen] = key
    return key


#: Raised on malformed patterns or incomplete instantiations: the text
#: front end's one error class, so a pattern syntax error carries its
#: line and column.
PatternError = ParseError


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _bind(theta: Subst, name: str, value: object) -> Optional[Subst]:
    bound = theta.get(name)
    if bound is None:
        out = dict(theta)
        out[name] = value
        return out
    return theta if bound == value else None


def match_var(pattern: object, var: Var, theta: Subst) -> Optional[Subst]:
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, VarPat):
        return _bind(theta, pattern.name, var)
    if isinstance(pattern, Var):
        return theta if pattern == var else None
    return None


def match_base(pattern: object, value: BaseExpr, theta: Subst) -> Optional[Subst]:
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, VarPat):
        return _bind(theta, pattern.name, value) if isinstance(value, Var) else None
    if isinstance(pattern, ConstPat):
        return _bind(theta, pattern.name, value) if isinstance(value, Const) else None
    if isinstance(pattern, ExprPat):
        return _bind(theta, pattern.name, value)
    if isinstance(pattern, (Var, Const)):
        return theta if pattern == value else None
    return None


def match_expr(pattern: object, expr: Expr, theta: Subst) -> Optional[Subst]:
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, ExprPat):
        return _bind(theta, pattern.name, expr)
    if isinstance(pattern, (VarPat, ConstPat, Var, Const)):
        return match_base(pattern, expr, theta) if isinstance(expr, (Var, Const)) else None
    if isinstance(pattern, Deref) and isinstance(expr, Deref):
        return match_var(pattern.var, expr.var, theta)
    if isinstance(pattern, AddrOf) and isinstance(expr, AddrOf):
        return match_var(pattern.var, expr.var, theta)
    if isinstance(pattern, UnOp) and isinstance(expr, UnOp):
        theta2 = _match_op(pattern.op, expr.op, theta)
        if theta2 is None:
            return None
        return match_base(pattern.arg, expr.arg, theta2)
    if isinstance(pattern, BinOp) and isinstance(expr, BinOp):
        theta2 = _match_op(pattern.op, expr.op, theta)
        if theta2 is None:
            return None
        theta3 = match_base(pattern.left, expr.left, theta2)
        if theta3 is None:
            return None
        return match_base(pattern.right, expr.right, theta3)
    return None


def _match_op(pattern_op: object, op: str, theta: Subst) -> Optional[Subst]:
    if isinstance(pattern_op, OpPat):
        return _bind(theta, pattern_op.name, op)
    return theta if pattern_op == op else None


def _match_index(pattern: object, index: int, theta: Subst) -> Optional[Subst]:
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, IndexPat):
        return _bind(theta, pattern.name, index)
    return theta if pattern == index else None


def match_lhs(pattern: object, lhs: object, theta: Subst) -> Optional[Subst]:
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, VarLhs) and isinstance(lhs, VarLhs):
        return match_var(pattern.var, lhs.var, theta)
    if isinstance(pattern, DerefLhs) and isinstance(lhs, DerefLhs):
        return match_var(pattern.var, lhs.var, theta)
    return None


def match_stmt(pattern: PStmt, stmt: Stmt, theta: Optional[Subst] = None) -> Optional[Subst]:
    """Match a pattern statement against a concrete statement.

    Returns the extended substitution, or None when they do not match.
    The incoming ``theta`` is never mutated.
    """
    if type(pattern) is not type(stmt):
        return None
    theta = dict(theta or {})
    if isinstance(pattern, Skip) and isinstance(stmt, Skip):
        return theta
    if isinstance(pattern, Decl) and isinstance(stmt, Decl):
        return match_var(pattern.var, stmt.var, theta)
    if isinstance(pattern, Assign) and isinstance(stmt, Assign):
        theta2 = match_lhs(pattern.lhs, stmt.lhs, theta)
        if theta2 is None:
            return None
        return match_expr(pattern.rhs, stmt.rhs, theta2)
    if isinstance(pattern, New) and isinstance(stmt, New):
        return match_var(pattern.var, stmt.var, theta)
    if isinstance(pattern, Call) and isinstance(stmt, Call):
        theta2 = match_var(pattern.var, stmt.var, theta)
        if theta2 is None:
            return None
        if not isinstance(pattern.proc, Wildcard) and pattern.proc != stmt.proc:
            return None
        return match_base(pattern.arg, stmt.arg, theta2)
    if isinstance(pattern, IfGoto) and isinstance(stmt, IfGoto):
        theta2 = match_base(pattern.cond, stmt.cond, theta)
        if theta2 is None:
            return None
        theta3 = _match_index(pattern.then_index, stmt.then_index, theta2)
        if theta3 is None:
            return None
        return _match_index(pattern.else_index, stmt.else_index, theta3)
    if isinstance(pattern, Return) and isinstance(stmt, Return):
        return match_var(pattern.var, stmt.var, theta)
    return None


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def _inst_var(pattern: object, theta: Subst) -> Var:
    if isinstance(pattern, VarPat):
        value = theta.get(pattern.name)
        if not isinstance(value, Var):
            raise PatternError(f"pattern variable {pattern.name} unbound or not a variable")
        return value
    if isinstance(pattern, Var):
        return pattern
    raise PatternError(f"cannot instantiate {pattern!r} as a variable")


def _inst_base(pattern: object, theta: Subst) -> BaseExpr:
    if isinstance(pattern, VarPat):
        return _inst_var(pattern, theta)
    if isinstance(pattern, ConstPat):
        value = theta.get(pattern.name)
        if not isinstance(value, Const):
            raise PatternError(f"pattern constant {pattern.name} unbound or not a constant")
        return value
    if isinstance(pattern, (Var, Const)):
        return pattern
    if isinstance(pattern, ExprPat):
        value = theta.get(pattern.name)
        if isinstance(value, (Var, Const)):
            return value
        raise PatternError(f"pattern {pattern.name} is not a base expression")
    raise PatternError(f"cannot instantiate {pattern!r} as a base expression")


def instantiate_expr(pattern: object, theta: Subst) -> Expr:
    if isinstance(pattern, ExprPat):
        value = theta.get(pattern.name)
        if value is None:
            raise PatternError(f"expression pattern {pattern.name} unbound")
        return value  # type: ignore[return-value]
    if isinstance(pattern, (VarPat, ConstPat, Var, Const)):
        return _inst_base(pattern, theta)
    if isinstance(pattern, Deref):
        return Deref(_inst_var(pattern.var, theta))
    if isinstance(pattern, AddrOf):
        return AddrOf(_inst_var(pattern.var, theta))
    if isinstance(pattern, UnOp):
        return UnOp(_inst_op(pattern.op, theta), _inst_base(pattern.arg, theta))
    if isinstance(pattern, BinOp):
        return BinOp(
            _inst_op(pattern.op, theta),
            _inst_base(pattern.left, theta),
            _inst_base(pattern.right, theta),
        )
    raise PatternError(f"cannot instantiate {pattern!r} as an expression")


def _inst_op(pattern: object, theta: Subst) -> str:
    if isinstance(pattern, OpPat):
        value = theta.get(pattern.name)
        if not isinstance(value, str):
            raise PatternError(f"operator pattern {pattern.name} unbound")
        return value
    if isinstance(pattern, str):
        return pattern
    raise PatternError(f"cannot instantiate {pattern!r} as an operator")


def _inst_index(pattern: object, theta: Subst) -> int:
    if isinstance(pattern, IndexPat):
        value = theta.get(pattern.name)
        if not isinstance(value, int):
            raise PatternError(f"index pattern {pattern.name} unbound")
        return value
    if isinstance(pattern, int):
        return pattern
    raise PatternError(f"cannot instantiate {pattern!r} as an index")


def instantiate_stmt(pattern: PStmt, theta: Subst) -> Stmt:
    """Instantiate a pattern statement with a substitution; total on the
    pattern shapes produced by :func:`parse_pattern_stmt`."""
    if isinstance(pattern, Skip):
        return pattern
    if isinstance(pattern, Decl):
        return Decl(_inst_var(pattern.var, theta))
    if isinstance(pattern, Assign):
        if isinstance(pattern.lhs, VarLhs):
            lhs: object = VarLhs(_inst_var(pattern.lhs.var, theta))
        else:
            lhs = DerefLhs(_inst_var(pattern.lhs.var, theta))
        return Assign(lhs, instantiate_expr(pattern.rhs, theta))
    if isinstance(pattern, New):
        return New(_inst_var(pattern.var, theta))
    if isinstance(pattern, Call):
        if isinstance(pattern.proc, Wildcard):
            raise PatternError("cannot instantiate a wildcard procedure name")
        return Call(_inst_var(pattern.var, theta), pattern.proc, _inst_base(pattern.arg, theta))
    if isinstance(pattern, IfGoto):
        return IfGoto(
            _inst_base(pattern.cond, theta),
            _inst_index(pattern.then_index, theta),
            _inst_index(pattern.else_index, theta),
        )
    if isinstance(pattern, Return):
        return Return(_inst_var(pattern.var, theta))
    raise PatternError(f"cannot instantiate {pattern!r}")


def pattern_vars(pattern: object) -> frozenset[str]:
    """Names of all pattern variables occurring in an (extended-IL) fragment."""
    found: set[str] = set()

    def walk(node: object) -> None:
        if isinstance(node, (VarPat, ConstPat, ExprPat, OpPat, IndexPat)):
            found.add(node.name)
        elif isinstance(node, (Var, Const, Wildcard, Skip, str, int)) or node is None:
            pass
        elif isinstance(node, Decl):
            walk(node.var)
        elif isinstance(node, Assign):
            walk(node.lhs)
            walk(node.rhs)
        elif isinstance(node, (VarLhs, DerefLhs)):
            walk(node.var)
        elif isinstance(node, New):
            walk(node.var)
        elif isinstance(node, Call):
            walk(node.var)
            walk(node.arg)
        elif isinstance(node, IfGoto):
            walk(node.cond)
            walk(node.then_index)
            walk(node.else_index)
        elif isinstance(node, Return):
            walk(node.var)
        elif isinstance(node, Deref):
            walk(node.var)
        elif isinstance(node, AddrOf):
            walk(node.var)
        elif isinstance(node, UnOp):
            walk(node.op)
            walk(node.arg)
        elif isinstance(node, BinOp):
            walk(node.op)
            walk(node.left)
            walk(node.right)
        else:
            raise PatternError(f"unexpected pattern node {node!r}")

    walk(pattern)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Concrete syntax for pattern statements
# ---------------------------------------------------------------------------
#
# Upper-case identifiers are pattern variables: names starting with C
# followed by optional digits are constant patterns; E* are expression
# patterns; OP* are operator patterns; I followed by digits are index
# patterns; everything else upper-case is a variable pattern.  ``...`` is
# the wildcard.  Lower-case identifiers are concrete program variables.


def classify_ident(name: str) -> object:
    """Map a pattern-syntax identifier to a leaf (pattern var or concrete)."""
    if not name[0].isupper():
        return Var(name)
    if name.startswith("E"):
        return ExprPat(name)
    if name.startswith("OP"):
        return OpPat(name)
    if name.startswith("C") and (len(name) == 1 or name[1:].isdigit()):
        return ConstPat(name)
    if name.startswith("I") and len(name) > 1 and name[1:].isdigit():
        return IndexPat(name)
    return VarPat(name)


def parse_pattern_stmt(text: str) -> PStmt:
    """Parse a pattern statement from concrete syntax.

    Examples::

        "X := Y"          assignment of a variable to a variable
        "Y := C"          assignment of a constant
        "X := E"          assignment of any expression
        "X := C1 OP C2"   operator application on constants
        "*X := Z"         pointer store
        "X := new"        allocation
        "X := P(...)"     any procedure call (P is matched as a wildcard)
        "if C goto I1 else I2"
        "decl X", "skip", "return X", "return ...", "X := ..."
        "X := &Y", "X := *Y"
    """
    from repro.cobalt.parser import CobaltParser

    return CobaltParser.parse(text, CobaltParser.statement)
