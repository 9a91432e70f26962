"""Programs and procedures with consecutive statement indexing.

Statements within a procedure are indexed consecutively from 0 and
``stmt_at(proc, i)`` returns the statement with index ``i``, matching the
paper's ``stmtAt(pi, iota)`` accessor.  Branch targets in ``if b goto i else
j`` refer to these indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.il.ast import (
    Assign,
    Call,
    Decl,
    IfGoto,
    New,
    Return,
    Skip,
    Stmt,
    VarLhs,
    stmt_mentioned_vars,
)

MAIN = "main"


class ProgramError(Exception):
    """Raised when a program or procedure is ill-formed."""


@dataclass(frozen=True)
class Procedure:
    """A procedure ``p(x) { s0; s1; ...; }``.

    Invariants (checked by :meth:`validate`):

    * every branch target is a valid statement index;
    * the final statement is ``return``;
    * no local variable is declared twice;
    * the formal parameter is not re-declared.
    """

    name: str
    param: str
    stmts: Tuple[Stmt, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stmts", tuple(self.stmts))

    # -- accessors ----------------------------------------------------------

    def stmt_at(self, index: int) -> Stmt:
        """The statement at ``index`` (the paper's ``stmtAt``)."""
        if not 0 <= index < len(self.stmts):
            raise ProgramError(f"{self.name}: no statement at index {index}")
        return self.stmts[index]

    def __len__(self) -> int:
        return len(self.stmts)

    def indices(self) -> range:
        """All statement indices of this procedure."""
        return range(len(self.stmts))

    def exit_indices(self) -> Tuple[int, ...]:
        """Indices of all ``return`` statements."""
        return tuple(i for i, s in enumerate(self.stmts) if isinstance(s, Return))

    def declared_vars(self) -> Tuple[str, ...]:
        """Names declared by ``decl`` statements, in order."""
        return tuple(s.var.name for s in self.stmts if isinstance(s, Decl))

    def local_vars(self) -> Tuple[str, ...]:
        """The formal parameter followed by all declared locals."""
        return (self.param,) + self.declared_vars()

    def mentioned_vars(self) -> frozenset[str]:
        """All variable names mentioned anywhere in the body."""
        out = frozenset([self.param])
        for s in self.stmts:
            out |= stmt_mentioned_vars(s)
        return out

    def constants(self) -> frozenset[int]:
        """All integer constants occurring in the body (for pattern search)."""
        from repro.il.ast import BinOp, Const, IfGoto as _If, UnOp

        found: set[int] = set()

        def walk_expr(e: object) -> None:
            if isinstance(e, Const):
                found.add(e.value)
            elif isinstance(e, UnOp):
                walk_expr(e.arg)
            elif isinstance(e, BinOp):
                walk_expr(e.left)
                walk_expr(e.right)

        for s in self.stmts:
            if isinstance(s, Assign):
                walk_expr(s.rhs)
            elif isinstance(s, Call):
                walk_expr(s.arg)
            elif isinstance(s, _If):
                walk_expr(s.cond)
        return frozenset(found)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ProgramError` on any violated invariant."""
        if not self.stmts:
            raise ProgramError(f"{self.name}: procedure has no statements")
        if not isinstance(self.stmts[-1], Return):
            raise ProgramError(f"{self.name}: last statement must be a return")
        declared = list(self.declared_vars())
        if len(declared) != len(set(declared)):
            raise ProgramError(f"{self.name}: duplicate local declaration")
        if self.param in declared:
            raise ProgramError(
                f"{self.name}: parameter {self.param} re-declared as a local"
            )
        for i, s in enumerate(self.stmts):
            if isinstance(s, IfGoto):
                for target in (s.then_index, s.else_index):
                    if not 0 <= target < len(self.stmts):
                        raise ProgramError(
                            f"{self.name}: statement {i} branches to invalid "
                            f"index {target}"
                        )

    # -- transformation support ----------------------------------------------

    def with_stmt(self, index: int, stmt: Stmt) -> "Procedure":
        """A copy of this procedure with the statement at ``index`` replaced.

        This is the single-statement rewrite primitive used by ``app`` in
        Definition 2 of the paper.
        """
        self.stmt_at(index)  # bounds check
        new_stmts = self.stmts[:index] + (stmt,) + self.stmts[index + 1 :]
        return replace(self, stmts=new_stmts)

    def with_stmts(self, updates: Mapping[int, Stmt]) -> "Procedure":
        """Apply several single-statement replacements at once."""
        new_stmts = list(self.stmts)
        for index, stmt in updates.items():
            self.stmt_at(index)
            new_stmts[index] = stmt
        return replace(self, stmts=tuple(new_stmts))


@dataclass(frozen=True)
class Program:
    """A program: a sequence of procedures including a distinguished ``main``."""

    procs: Tuple[Procedure, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "procs", tuple(self.procs))

    def proc(self, name: str) -> Procedure:
        """Look up a procedure by name."""
        for p in self.procs:
            if p.name == name:
                return p
        raise ProgramError(f"no procedure named {name}")

    def has_proc(self, name: str) -> bool:
        return any(p.name == name for p in self.procs)

    @property
    def main(self) -> Procedure:
        return self.proc(MAIN)

    def proc_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.procs)

    def validate(self) -> None:
        """Check program-level invariants (including each procedure's)."""
        names = self.proc_names()
        if len(names) != len(set(names)):
            raise ProgramError("duplicate procedure name")
        if MAIN not in names:
            raise ProgramError("program has no main procedure")
        for p in self.procs:
            p.validate()
            for s in p.stmts:
                if isinstance(s, Call) and not self.has_proc(s.proc):
                    raise ProgramError(
                        f"{p.name}: call to undefined procedure {s.proc}"
                    )

    def with_proc(self, proc: Procedure) -> "Program":
        """The paper's ``pi[p -> p']``: replace the same-named procedure."""
        new_procs = tuple(proc if p.name == proc.name else p for p in self.procs)
        if proc.name not in self.proc_names():
            new_procs = new_procs + (proc,)
        return Program(new_procs)

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self.procs)
