"""Pretty-printing of IL programs.

The printer produces the concrete syntax accepted by :mod:`repro.il.parser`,
so ``parse_program(program_to_str(p))`` round-trips (tested by a hypothesis
property in the test suite).
"""

from __future__ import annotations

from repro.il.ast import Stmt
from repro.il.program import Procedure, Program


def stmt_to_str(s: Stmt) -> str:
    """Concrete syntax for a statement."""
    return str(s)


def proc_to_str(proc: Procedure, *, indices: bool = False) -> str:
    """Concrete syntax for a procedure.

    With ``indices=True`` each statement is prefixed by its index as a
    comment, which is convenient when reading branch targets.
    """
    lines = [f"{proc.name}({proc.param}) {{"]
    for i, s in enumerate(proc.stmts):
        prefix = f"  /* {i:3d} */ " if indices else "  "
        lines.append(f"{prefix}{stmt_to_str(s)};")
    lines.append("}")
    return "\n".join(lines)


def program_to_str(program: Program, *, indices: bool = False) -> str:
    """Concrete syntax for a whole program."""
    return "\n\n".join(proc_to_str(p, indices=indices) for p in program.procs)
