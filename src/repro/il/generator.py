"""Random well-formed IL program generator.

Used by the differential-testing harness (experiment E7): optimizations
proven sound by the checker are run on random programs, and original and
transformed programs are interpreted on a range of inputs to confirm
semantic equivalence end-to-end.

The generator is deliberately biased toward the shapes optimizations care
about: repeated constants, copies of variables, redundant expressions, dead
assignments, branches that skip over regions, and (optionally) pointers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.il.ast import (
    AddrOf,
    Assign,
    BaseExpr,
    BinOp,
    Const,
    Decl,
    Deref,
    DerefLhs,
    Expr,
    IfGoto,
    New,
    Return,
    Skip,
    UnOp,
    Var,
    VarLhs,
)
from repro.il.program import Procedure


@dataclass
class GeneratorConfig:
    """Knobs for the random program generator."""

    num_vars: int = 4
    num_stmts: int = 12
    num_branches: int = 2
    allow_pointers: bool = False
    allow_division: bool = False
    const_pool: Sequence[int] = (0, 1, 2, 3, 5)

    def var_names(self) -> List[str]:
        return [f"v{i}" for i in range(self.num_vars)]


# Operators safe on arbitrary integers (no division-by-zero stuckness).
_SAFE_BINOPS = ("+", "-", "*", "==", "!=", "<", "<=", ">", ">=", "&&", "||")


class ProgramGenerator:
    """Generates valid, mostly-terminating programs from a seeded RNG.

    All randomness flows through a single :class:`random.Random` instance:
    either pass ``rng=`` explicitly (shared streams, e.g. fuzz campaigns
    drawing many programs from one seed) or ``seed=`` to get a private
    instance.  No module-global ``random`` state is ever consulted, so a
    campaign is reproducible from its seed alone.
    """

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        seed: int = 0,
        *,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or GeneratorConfig()
        self.rng = rng if rng is not None else random.Random(seed)

    # -- pieces -------------------------------------------------------------------

    def _const(self) -> Const:
        return Const(self.rng.choice(list(self.config.const_pool)))

    def _var(self, in_scope: Sequence[str]) -> Var:
        return Var(self.rng.choice(list(in_scope)))

    def _base(self, in_scope: Sequence[str]) -> BaseExpr:
        if in_scope and self.rng.random() < 0.6:
            return self._var(in_scope)
        return self._const()

    def _expr(self, in_scope: Sequence[str], pointer_vars: Sequence[str]) -> Expr:
        roll = self.rng.random()
        if roll < 0.30:
            return self._base(in_scope)
        if roll < 0.75:
            ops = _SAFE_BINOPS + (("/", "%") if self.config.allow_division else ())
            return BinOp(self.rng.choice(ops), self._base(in_scope), self._base(in_scope))
        if roll < 0.85:
            return UnOp(self.rng.choice(("neg", "not")), self._base(in_scope))
        if self.config.allow_pointers and pointer_vars and roll < 0.92:
            return Deref(Var(self.rng.choice(list(pointer_vars))))
        if self.config.allow_pointers and in_scope and roll < 0.96:
            return AddrOf(self._var(in_scope))
        return self._base(in_scope)

    # -- whole programs ----------------------------------------------------------

    def gen_proc(self, name: str = "main", param: str = "n") -> Procedure:
        """Generate one straight-line-plus-forward-branches procedure.

        Branches only jump *forward*, so every generated procedure
        terminates; that keeps the differential harness free of fuel
        questions while still exercising join points and unreachable code.
        """
        cfg = self.config
        names = cfg.var_names()
        stmts: List[object] = [Decl(Var(v)) for v in names]
        in_scope = [param] + names
        # Variables that currently *definitely* hold a pointer (written by
        # new/addr-of and not overwritten since).  Used so generated derefs
        # usually succeed.
        pointer_vars: List[str] = []
        initialized: List[str] = [param]

        for v in names:
            stmts.append(Assign(VarLhs(Var(v)), self._base(initialized)))
            initialized.append(v)

        body_len = cfg.num_stmts
        branch_slots = sorted(
            self.rng.sample(range(body_len), min(cfg.num_branches, body_len))
        )
        placeholders: List[int] = []  # indices of branch placeholders
        for slot in range(body_len):
            if slot in branch_slots:
                stmts.append(("branch", self._base(initialized)))
                placeholders.append(len(stmts) - 1)
                continue
            stmts.append(self._gen_simple(initialized, pointer_vars))
            last = stmts[-1]
            if isinstance(last, New):
                pointer_vars.append(last.var.name)
            elif isinstance(last, Assign) and isinstance(last.lhs, VarLhs):
                target = last.lhs.var.name
                if isinstance(last.rhs, AddrOf):
                    if target not in pointer_vars:
                        pointer_vars.append(target)
                elif target in pointer_vars:
                    pointer_vars.remove(target)

        result_var = self.rng.choice(initialized)
        stmts.append(Return(Var(result_var)))

        # Resolve branch placeholders to random *forward* targets.
        resolved: List[object] = []
        n = len(stmts)
        for i, s in enumerate(stmts):
            if isinstance(s, tuple) and s[0] == "branch":
                then_index = self.rng.randrange(i + 1, n)
                else_index = self.rng.randrange(i + 1, n)
                resolved.append(IfGoto(s[1], then_index, else_index))
            else:
                resolved.append(s)
        proc = Procedure(name, param, tuple(resolved))  # type: ignore[arg-type]
        proc.validate()
        return proc

    def _gen_simple(self, initialized: Sequence[str], pointer_vars: Sequence[str]):
        cfg = self.config
        roll = self.rng.random()
        writable = [v for v in initialized if v != "n"] or list(initialized)
        if roll < 0.08:
            return Skip()
        if cfg.allow_pointers and roll < 0.14:
            return New(Var(self.rng.choice(writable)))
        if cfg.allow_pointers and pointer_vars and roll < 0.20:
            return Assign(
                DerefLhs(Var(self.rng.choice(list(pointer_vars)))),
                self._base(initialized),
            )
        target = self.rng.choice(writable)
        rhs_scope = [v for v in initialized]
        return Assign(VarLhs(Var(target)), self._expr(rhs_scope, pointer_vars))
