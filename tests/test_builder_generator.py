"""Tests for the random program generator."""

from repro.il import run_program
from repro.il.ast import Assign, BinOp, Deref, New
from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.il.program import Program


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = ProgramGenerator(seed=7).gen_proc()
        b = ProgramGenerator(seed=7).gen_proc()
        assert a == b

    def test_different_seeds_differ(self):
        procs = {ProgramGenerator(seed=s).gen_proc() for s in range(10)}
        assert len(procs) > 5

    def test_terminates_by_construction(self):
        # Branches only jump forward: every generated program halts.
        for seed in range(30):
            proc = ProgramGenerator(GeneratorConfig(num_branches=3), seed=seed).gen_proc()
            program = Program((proc,))
            run_program(program, 1, fuel=5_000)  # must not raise OutOfFuel

    def test_no_pointers_unless_enabled(self):
        for seed in range(20):
            proc = ProgramGenerator(GeneratorConfig(allow_pointers=False), seed=seed).gen_proc()
            for stmt in proc.stmts:
                assert not isinstance(stmt, New)
                if isinstance(stmt, Assign):
                    assert not isinstance(stmt.rhs, Deref)

    def test_pointers_appear_when_enabled(self):
        hits = 0
        for seed in range(30):
            proc = ProgramGenerator(
                GeneratorConfig(allow_pointers=True, num_stmts=14), seed=seed
            ).gen_proc()
            if any(isinstance(s, New) for s in proc.stmts):
                hits += 1
        assert hits > 5

    def test_no_division_unless_enabled(self):
        for seed in range(20):
            proc = ProgramGenerator(GeneratorConfig(), seed=seed).gen_proc()
            for stmt in proc.stmts:
                if isinstance(stmt, Assign) and isinstance(stmt.rhs, BinOp):
                    assert stmt.rhs.op not in ("/", "%")

    def test_statement_budget_respected(self):
        config = GeneratorConfig(num_stmts=6, num_vars=2)
        proc = ProgramGenerator(config, seed=0).gen_proc()
        # decls + init assigns + body + return
        assert len(proc.stmts) == 2 + 2 + 6 + 1
