"""The Cobalt intermediate language (IL) substrate.

This package implements the paper's C-like untyped intermediate language
(section 3.1): unstructured control flow, pointers to local variables,
dynamically allocated memory, and recursive procedures, together with its
small-step operational semantics, a parser, a pretty-printer, a CFG
construction, and a random program generator used by the
differential-testing harness.
"""

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
    IfGoto,
    Lhs,
    New,
    Return,
    Skip,
    Stmt,
    UnOp,
    Var,
    VarLhs,
)
from repro.il.cfg import Cfg
from repro.il.interp import ExecError, Interpreter, run_program
from repro.il.parser import ParseError, parse_program, parse_stmt
from repro.il.printer import stmt_to_str, program_to_str
from repro.il.program import Procedure, Program

__all__ = [
    "AddrOf",
    "Assign",
    "BinOp",
    "Call",
    "Cfg",
    "Const",
    "Decl",
    "Deref",
    "DerefLhs",
    "ExecError",
    "Expr",
    "IfGoto",
    "Interpreter",
    "Lhs",
    "New",
    "ParseError",
    "Procedure",
    "Program",
    "Return",
    "Skip",
    "Stmt",
    "UnOp",
    "Var",
    "VarLhs",
    "parse_program",
    "parse_stmt",
    "program_to_str",
    "run_program",
    "stmt_to_str",
]
