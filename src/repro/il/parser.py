"""A tokenizer and recursive-descent parser for the intermediate language.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    Lhs,
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


class ParseError(Exception):
    """Raised on any syntax error, with line/column information."""


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUM | PUNCT | EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>/\*.*?\*/|//[^\n]*)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>:=|==|!=|<=|>=|&&|\|\||[-+*/%<>&(){};,=!])
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = {"decl", "skip", "new", "if", "goto", "else", "return"}


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on junk."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"line {line}, col {col}: unexpected character {text[pos]!r}")
        lexeme = m.group(0)
        col = pos - line_start + 1
        if m.lastgroup == "num":
            tokens.append(Token("NUM", lexeme, line, col))
        elif m.lastgroup == "ident":
            tokens.append(Token("IDENT", lexeme, line, col))
        elif m.lastgroup == "punct":
            tokens.append(Token("PUNCT", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = pos + lexeme.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0

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
        return ParseError(f"line {tok.line}, col {tok.col}: {message} (got {tok.text!r})")

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
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
        tok = self.peek()
        if tok.kind != "NUM":
            raise self.error("expected number")
        return int(self.advance().text)

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
        tok = self.peek()
        if tok.text == "decl":
            self.advance()
            return Decl(Var(self.expect_ident()))
        if tok.text == "skip":
            self.advance()
            return Skip()
        if tok.text == "return":
            self.advance()
            return Return(Var(self.expect_ident()))
        if tok.text == "if":
            self.advance()
            cond = self.base_expr()
            self.expect("goto")
            then_index = self.expect_num()
            self.expect("else")
            else_index = self.expect_num()
            return IfGoto(cond, then_index, else_index)
        if tok.text == "*":
            self.advance()
            target = DerefLhs(Var(self.expect_ident()))
            self.expect(":=")
            return Assign(target, self.expr())
        if tok.kind == "IDENT":
            name = self.expect_ident()
            self.expect(":=")
            if self.accept("new"):
                return New(Var(name))
            # Could be a call ``x := p(b)`` or a plain assignment.
            if (
                self.peek().kind == "IDENT"
                and self.peek().text not in KEYWORDS
                and self.tokens[self.pos + 1].text == "("
            ):
                proc = self.expect_ident()
                self.expect("(")
                arg = self.base_expr()
                self.expect(")")
                return Call(Var(name), proc, arg)
            return Assign(VarLhs(Var(name)), self.expr())
        raise self.error("expected statement")

    def base_expr(self) -> BaseExpr:
        tok = self.peek()
        if tok.text == "-" and self.tokens[self.pos + 1].kind == "NUM":
            self.advance()
            return Const(-self.expect_num())
        if tok.kind == "NUM":
            return Const(self.expect_num())
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            return Var(self.expect_ident())
        raise self.error("expected base expression (variable or constant)")

    def expr(self) -> Expr:
        tok = self.peek()
        if tok.text == "*":
            self.advance()
            return Deref(Var(self.expect_ident()))
        if tok.text == "&":
            self.advance()
            return AddrOf(Var(self.expect_ident()))
        if tok.kind == "IDENT" and tok.text in UNARY_OPS:
            op = self.advance().text
            return UnOp(op, self.base_expr())
        left = self.base_expr()
        if self.peek().text in BINARY_OPS:
            op = self.advance().text
            right = self.base_expr()
            return BinOp(op, left, right)
        return left


def parse_program(text: str) -> Program:
    """Parse (and validate) a whole program."""
    return _Parser(text).program()


def parse_proc(text: str) -> Procedure:
    """Parse a single procedure without program-level validation."""
    parser = _Parser(text)
    proc = parser.procedure()
    if parser.peek().kind != "EOF":
        raise parser.error("trailing input after procedure")
    proc.validate()
    return proc


def parse_stmt(text: str) -> Stmt:
    """Parse a single statement (no trailing semicolon required)."""
    parser = _Parser(text)
    stmt = parser.statement()
    parser.accept(";")
    if parser.peek().kind != "EOF":
        raise parser.error("trailing input after statement")
    return stmt
