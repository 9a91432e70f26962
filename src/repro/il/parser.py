"""The text front end: one tokenizer and one statement grammar.

Concrete syntax::

    main(n) {
      decl x;
      x := n + 1;
      if x goto 4 else 5;
      skip;
      x := p(x);
      return x;
    }

Comments are ``/* ... */`` (non-nesting) and ``// ...`` to end of line.
The tokenizer also knows the Cobalt tokens ``...``, ``=>`` and ``?``:
:class:`repro.cobalt.parser.CobaltParser` reuses this statement grammar
and overrides only its leaf rules, so a pattern statement is an IL
statement whose leaves may be pattern variables.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

from repro.il.ast import (
    AddrOf,
    Assign,
    BINARY_OPS,
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
    UNARY_OPS,
    UnOp,
    Var,
    VarLhs,
)
from repro.il.program import Procedure, Program


class ParseError(ValueError):
    """The front end's one error: malformed IL or Cobalt text.

    ``line`` and ``col`` (1-based) locate the offending token; they are
    ``None`` only for errors raised outside the parser under the
    ``PatternError`` name (a failed pattern instantiation)."""

    def __init__(
        self, message: str, line: Optional[int] = None, col: Optional[int] = None
    ) -> None:
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # IDENT | NUM | PUNCT | EOF
    text: str
    pos: int  # offset into the source text


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|/\*.*?\*/|//[^\n]*)
    | (?P<NUM>\d+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>\.\.\.|:=|==|!=|<=|>=|=>|&&|\|\||[-+*/%<>&(){};,=!?])
    | (?P<junk>.)
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = {"decl", "skip", "new", "if", "goto", "else", "return"}


def _error_at(text: str, pos: int, message: str) -> ParseError:
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on junk."""
    tokens: List[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "junk":
            raise _error_at(text, m.start(), f"unexpected character {m.group()!r}")
        tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("EOF", "", len(text)))
    return tokens


class Parser:
    """Recursive descent over :func:`tokenize`'s stream.

    The leaf rules -- :meth:`var`, :meth:`base_expr`, :meth:`index`,
    :meth:`binary_op`, :meth:`callee` and :meth:`assign_lhs` -- are the
    hooks a pattern-mode subclass overrides."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    @classmethod
    def parse(cls, text: str, rule):
        """Run grammar ``rule`` (an unbound method) over all of ``text``."""
        parser = cls(text)
        result = rule(parser)
        parser.end()
        return result

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        got = repr(tok.text) if tok.kind != "EOF" else "end of input"
        return _error_at(self.text, tok.pos, f"{message} (got {got})")

    def expect(self, text: str) -> Token:
        if self.peek().text != text:
            raise self.error(f"expected {text!r}")
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.advance()
            return True
        return False

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in KEYWORDS:
            raise self.error("expected identifier")
        return self.advance().text

    def expect_num(self) -> int:
        if self.peek().kind != "NUM":
            raise self.error("expected number")
        return int(self.advance().text)

    def end(self) -> None:
        if self.peek().kind != "EOF":
            raise self.error("trailing input")

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        procs: List[Procedure] = []
        while self.peek().kind != "EOF":
            procs.append(self.procedure())
        program = Program(tuple(procs))
        program.validate()
        return program

    def procedure(self) -> Procedure:
        name = self.expect_ident()
        self.expect("(")
        param = self.expect_ident()
        self.expect(")")
        self.expect("{")
        stmts: List[Stmt] = []
        while not self.accept("}"):
            stmts.append(self.statement())
            self.expect(";")
        return Procedure(name, param, tuple(stmts))

    def statement(self) -> Stmt:
        if self.accept("decl"):
            return Decl(self.var())
        if self.accept("skip"):
            return Skip()
        if self.accept("return"):
            return Return(self.var())
        if self.accept("if"):
            cond = self.base_expr()
            self.expect("goto")
            then_index = self.index()
            self.expect("else")
            return IfGoto(cond, then_index, self.index())
        if self.accept("*"):
            target = DerefLhs(self.var())
            self.expect(":=")
            return Assign(target, self.expr())
        var = self.var()
        self.expect(":=")
        if self.accept("new"):
            return New(var)
        # Could be a call ``x := p(b)`` or a plain assignment.
        if self.peek().kind == "IDENT" and self.tokens[self.pos + 1].text == "(":
            proc = self.callee()
            self.expect("(")
            arg = self.base_expr()
            self.expect(")")
            return Call(var, proc, arg)
        return Assign(self.assign_lhs(var), self.expr())

    def expr(self) -> Expr:
        if self.accept("*"):
            return Deref(self.var())
        if self.accept("&"):
            return AddrOf(self.var())
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in UNARY_OPS:
            self.advance()
            return UnOp(tok.text, self.base_expr())
        left = self.base_expr()
        op = self.binary_op()
        if op is None:
            return left
        return BinOp(op, left, self.base_expr())

    # -- leaves ---------------------------------------------------------------

    def var(self) -> Var:
        return Var(self.expect_ident())

    def base_expr(self) -> BaseExpr:
        tok = self.peek()
        if tok.text == "-" and self.tokens[self.pos + 1].kind == "NUM":
            self.advance()
            return Const(-self.expect_num())
        if tok.kind == "NUM":
            return Const(self.expect_num())
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            return Var(self.advance().text)
        raise self.error("expected base expression (variable or constant)")

    def index(self) -> int:
        return self.expect_num()

    def binary_op(self) -> Optional[str]:
        if self.peek().text in BINARY_OPS:
            return self.advance().text
        return None

    def callee(self) -> str:
        return self.expect_ident()

    def assign_lhs(self, var: Var) -> VarLhs:
        return VarLhs(var)


def parse_program(text: str) -> Program:
    """Parse (and validate) a whole program."""
    return Parser(text).program()


def parse_proc(text: str) -> Procedure:
    """Parse a single procedure without program-level validation."""
    proc = Parser.parse(text, Parser.procedure)
    proc.validate()
    return proc


def parse_stmt(text: str) -> Stmt:
    """Parse a single statement (no trailing semicolon required)."""
    parser = Parser(text)
    stmt = parser.statement()
    parser.accept(";")
    parser.end()
    return stmt
