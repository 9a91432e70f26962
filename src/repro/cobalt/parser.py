"""Parser for the textual Cobalt concrete syntax.

Optimizations can be written as they appear in the paper::

    forward optimization constProp {
      stmt(Y := C)
      followed by
      !mayDef(Y)
      until
      X := Y  =>  X := C
      with witness
      eta(Y) == C
    }

    backward optimization deadAssignElim {
      (stmt(X := ...) || stmt(return ...)) && !mayUse(X)
      preceded by
      !mayUse(X)
      since
      X := E  =>  skip
      with witness
      etaOld/X == etaNew/X
    }

    analysis taintedness {
      stmt(decl X)
      followed by
      !stmt(... := &X)
      defines
      notTainted(X)
      with witness
      notPointedTo(X)
    }

Guards are boolean combinations (``!``, ``&&``, ``||``, parentheses) of
label atoms ``l(t, ...)``, the built-in ``stmt(<pattern>)``, term equality
``t == t``, and ``true``/``false``.  Witness syntax covers the stock
witnesses of :mod:`repro.cobalt.witness`.

Everything is parsed over the IL tokenizer's stream
(:mod:`repro.il.parser`), so comments work anywhere and every error is a
:class:`~repro.il.parser.ParseError` that names its line and column.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.il.ast import Var
from repro.il.parser import KEYWORDS, ParseError, Parser
from repro.cobalt.dsl import BackwardPattern, ForwardPattern, PureAnalysis
from repro.cobalt.guards import (
    GAnd,
    GEq,
    GFalse,
    GLabel,
    GNot,
    GOr,
    GTrue,
    Guard,
)
from repro.cobalt.patterns import (
    ConstPat,
    ExprPat,
    IndexPat,
    OpPat,
    VarPat,
    Wildcard,
    classify_ident,
)
from repro.cobalt.witness import (
    Conj,
    EqualExceptVar,
    NotPointedTo,
    TrueWitness,
    VarEqConst,
    VarEqExpr,
    VarEqVar,
)

#: The name this front end's error had before IL and Cobalt shared one.
CobaltSyntaxError = ParseError

_VAR_SORTS = (Var, VarPat)
_BASE_SORTS = (Var, VarPat, ConstPat, ExprPat)


class CobaltParser(Parser):
    """The IL grammar in pattern mode, plus blocks, guards and witnesses.

    Upper-case identifiers are pattern variables (see
    :func:`~repro.cobalt.patterns.classify_ident`) and ``...`` is the
    wildcard; only the leaf rules differ from IL."""

    # -- pattern leaves -------------------------------------------------------

    def leaf(self, sorts: tuple, what: str) -> object:
        """``...`` or an identifier whose pattern sort is one of ``sorts``."""
        if self.accept("..."):
            return Wildcard()
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            leaf = classify_ident(tok.text)
            if isinstance(leaf, sorts):
                self.advance()
                return leaf
        raise self.error(f"expected {what}")

    def var(self):
        return self.leaf(_VAR_SORTS, "a variable pattern")

    def base_expr(self):
        if self.peek().kind == "NUM" or self.peek().text == "-":
            return super().base_expr()
        return self.leaf(_BASE_SORTS, "a base-expression pattern")

    def index(self):
        if self.peek().kind == "NUM":
            return super().index()
        return self.leaf((IndexPat,), "an index pattern")

    def binary_op(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text.startswith("OP"):
            self.advance()
            return OpPat(tok.text)
        return super().binary_op()

    def callee(self):
        # ``X := P(...)``: an upper-case name matches any procedure.
        name = self.expect_ident()
        return Wildcard() if name[0].isupper() else name

    def assign_lhs(self, var):
        # A wildcard target matches any assignment target (variable or
        # pointer store); a named target matches variable assignments only.
        return var if isinstance(var, Wildcard) else super().assign_lhs(var)

    def term(self) -> object:
        """A label argument or witness term: a lone leaf of any sort, or an
        expression pattern."""
        tok = self.peek()
        leaf = classify_ident(tok.text) if tok.kind == "IDENT" else None
        if isinstance(leaf, (IndexPat, OpPat)):
            self.advance()
            return leaf
        return self.expr()

    def name_leaf(self) -> object:
        """A lone identifier as a pattern leaf (witness and ``==`` operands)."""
        return classify_ident(self.expect_ident())

    def args(self) -> Tuple[object, ...]:
        self.expect("(")
        if self.accept(")"):
            return ()
        args = [self.term()]
        while self.accept(","):
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def phrase(self, words: str) -> None:
        for word in words.split():
            self.expect(word)

    # -- blocks ---------------------------------------------------------------

    def blocks(self) -> List[Tuple[str, object]]:
        """``file := block+``: each block with the source text it spans."""
        out = []
        while self.peek().kind != "EOF":
            start = self.peek().pos
            item = self.analysis() if self.peek().text == "analysis" else self.optimization()
            close = self.tokens[self.pos - 1]
            out.append((self.text[start : close.pos + 1], item))
        if not out:
            raise self.error("no optimization or analysis blocks found")
        return out

    def optimization(self):
        forward = self.accept("forward")
        if not forward and not self.accept("backward"):
            raise self.error("expected 'forward optimization', 'backward optimization' or 'analysis'")
        self.expect("optimization")
        name = self.expect_ident()
        self.expect("{")
        psi1 = self.guard()
        self.phrase("followed by" if forward else "preceded by")
        psi2 = self.guard()
        self.expect("until" if forward else "since")
        s = self.statement()
        self.expect("=>")
        s_new = self.statement()
        self.phrase("with witness")
        witness = self.witness()
        self.expect("}")
        cls = ForwardPattern if forward else BackwardPattern
        return cls(name, psi1, psi2, s, s_new, witness)

    def analysis(self) -> PureAnalysis:
        self.expect("analysis")
        name = self.expect_ident()
        self.expect("{")
        psi1 = self.guard()
        self.phrase("followed by")
        psi2 = self.guard()
        self.expect("defines")
        label_name = self.expect_ident()
        args = self.args()
        self.phrase("with witness")
        witness = self.witness()
        self.expect("}")
        return PureAnalysis(name, psi1, psi2, label_name, args, witness)

    # -- guards ---------------------------------------------------------------

    def guard(self) -> Guard:
        parts = [self.conjunction()]
        while self.accept("||"):
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else GOr(tuple(parts))

    def conjunction(self) -> Guard:
        parts = [self.negation()]
        while self.accept("&&"):
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else GAnd(tuple(parts))

    def negation(self) -> Guard:
        if self.accept("!"):
            return GNot(self.negation())
        if self.accept("("):
            inner = self.guard()
            self.expect(")")
            return inner
        if self.peek().kind != "IDENT":
            raise self.error("expected guard atom")
        name = self.advance().text
        if name == "true":
            return GTrue()
        if name == "false":
            return GFalse()
        if name == "stmt" and self.accept("("):
            s = self.statement()
            self.expect(")")
            return GLabel("stmt", (s,))
        if self.peek().text == "(":
            return GLabel(name, self.args())
        if self.accept("=="):
            return GEq(classify_ident(name), self.name_leaf())
        return GLabel(name, ())

    # -- witnesses ------------------------------------------------------------

    def witness(self):
        parts = [self.witness_atom()]
        while self.accept("&&"):
            parts.append(self.witness_atom())
        return parts[0] if len(parts) == 1 else Conj(tuple(parts))

    def witness_atom(self):
        if self.accept("true"):
            return TrueWitness()
        if self.accept("notPointedTo"):
            self.expect("(")
            var = self.name_leaf()
            self.expect(")")
            return NotPointedTo(var)
        if self.accept("etaOld"):
            self.expect("/")
            name = self.expect_ident()
            self.phrase("== etaNew /")
            if self.peek().text != name:
                raise self.error("etaOld/X == etaNew/Y requires X == Y")
            self.advance()
            return EqualExceptVar(classify_ident(name))
        if self.accept("eta"):
            self.expect("(")
            lhs = self.name_leaf()
            self.phrase(") ==")
            if not self.accept("eta"):
                return VarEqConst(lhs, self.base_expr())
            self.expect("(")
            rhs = self.term()
            self.expect(")")
            if isinstance(rhs, _VAR_SORTS):
                return VarEqVar(lhs, rhs)
            return VarEqExpr(lhs, rhs)
        raise self.error("unrecognized witness")


def parse_optimization(source: str):
    """Parse a ``forward optimization`` or ``backward optimization`` block
    into a :class:`ForwardPattern` or :class:`BackwardPattern`."""
    return CobaltParser.parse(source, CobaltParser.optimization)


def parse_pure_analysis(source: str) -> PureAnalysis:
    """Parse an ``analysis name { ... }`` block into a :class:`PureAnalysis`."""
    return CobaltParser.parse(source, CobaltParser.analysis)


def parse_guard(text: str) -> Guard:
    """Parse a guard formula psi."""
    return CobaltParser.parse(text, CobaltParser.guard)


def parse_witness(text: str):
    """Parse a witness clause into a stock witness object."""
    return CobaltParser.parse(text, CobaltParser.witness)


def split_blocks(source: str) -> List[str]:
    """Split a .cobalt file into the source text of its top-level blocks,
    from each header keyword to its closing brace."""
    return [text for text, _ in CobaltParser(source).blocks()]


def parse_blocks(source: str) -> List[object]:
    """Parse every block of a .cobalt file, in order: a
    :class:`ForwardPattern`, :class:`BackwardPattern` or
    :class:`PureAnalysis` each."""
    return [item for _, item in CobaltParser(source).blocks()]
