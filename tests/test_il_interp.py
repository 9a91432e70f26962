"""Unit tests for the IL interpreter (state transitions, error model)."""

import pytest

from repro.il import Interpreter, parse_program, run_program
from repro.il.interp import ExecError, Finished, Next, Stuck


def build_simple():
    return parse_program("main(n) { decl x; x := n + 1; return x; }")


class TestBasicExecution:
    def test_add_one(self):
        assert run_program(build_simple(), 41) == 42

    def test_parse_and_run(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := n * 2;
              return x;
            }
            """
        )
        assert run_program(program, 10) == 20

    def test_branch_taken(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := 0;
              if n goto 4 else 5;
              skip;
              x := 1;
              return x;
            }
            """
        )
        assert run_program(program, 1) == 1  # falls through the skip at 4
        assert run_program(program, 0) == 0  # jumps straight to the return

    def test_branch_skips_assignment(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := 7;
              if n goto 4 else 3;
              x := 9;
              return x;
            }
            """
        )
        assert run_program(program, 1) == 7
        assert run_program(program, 0) == 9

    def test_unconditional_goto(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := 5;
              if 1 goto 4 else 4;
              x := 6;
              return x;
            }
            """
        )
        assert run_program(program, 0) == 5


class TestPointers:
    def test_addr_of_and_deref(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              decl p;
              x := 10;
              p := &x;
              x := *p;
              return x;
            }
            """
        )
        assert run_program(program, 0) == 10

    def test_store_through_pointer(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              decl p;
              x := 1;
              p := &x;
              *p := 99;
              return x;
            }
            """
        )
        assert run_program(program, 0) == 99

    def test_heap_allocation(self):
        program = parse_program(
            """
            main(n) {
              decl p;
              decl x;
              p := new;
              *p := n;
              x := *p;
              return x;
            }
            """
        )
        assert run_program(program, 123) == 123

    def test_deref_non_pointer_is_stuck(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              decl y;
              x := 5;
              y := *x;
              return y;
            }
            """
        )
        with pytest.raises(ExecError):
            run_program(program, 0)


class TestCalls:
    def test_simple_call(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := double(n);
              return x;
            }
            double(a) {
              decl t;
              t := a * 2;
              return t;
            }
            """
        )
        assert run_program(program, 21) == 42

    def test_recursion(self):
        # sum(n) = n + sum(n - 1), base case 0
        program = parse_program(
            """
            main(n) {
              decl x;
              x := sum(n);
              return x;
            }
            sum(a) {
              decl r;
              decl t;
              r := 0;
              if a goto 4 else 7;
              t := a - 1;
              r := sum(t);
              r := r + a;
              return r;
            }
            """
        )
        assert run_program(program, 5) == 15

    def test_intra_step_over_call(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := double(n);
              return x;
            }
            double(a) {
              decl t;
              t := a * 2;
              return t;
            }
            """
        )
        interp = Interpreter(program)
        state = interp.initial_state(10)
        result = interp.step(state)  # decl x
        assert isinstance(result, Next)
        result = interp.intra_step(result.state)  # the call, stepped over
        assert isinstance(result, Next)
        assert result.state.proc_name == "main"
        assert result.state.index == 2
        assert result.state.read_var("x") == 20


class TestErrorModel:
    def test_declared_var_reads_zero(self):
        # decl zero-initializes (see DESIGN.md "Error model").
        program = parse_program(
            """
            main(n) {
              decl x;
              decl y;
              y := x;
              return y;
            }
            """
        )
        assert run_program(program, 7) == 0

    def test_undeclared_read_is_stuck(self):
        program = parse_program(
            """
            main(n) {
              decl y;
              y := x;
              return y;
            }
            """
        )
        with pytest.raises(ExecError):
            run_program(program, 0)

    def test_re_executed_decl_is_stuck(self):
        # A loop back to a decl re-declares the variable: a run-time error.
        program = parse_program(
            """
            main(n) {
              decl x;
              if n goto 0 else 2;
              return x;
            }
            """
        )
        assert run_program(program, 0) == 0
        with pytest.raises(ExecError):
            run_program(program, 1)

    def test_division_by_zero_is_stuck(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := 1 / n;
              return x;
            }
            """
        )
        assert run_program(program, 2) == 0
        with pytest.raises(ExecError):
            run_program(program, 0)

    def test_branch_on_pointer_is_stuck(self):
        program = parse_program(
            """
            main(n) {
              decl p;
              p := new;
              if p goto 3 else 3;
              return n;
            }
            """
        )
        with pytest.raises(ExecError):
            run_program(program, 0)

    def test_stuck_reported_not_next(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := *n;
              return x;
            }
            """
        )
        interp = Interpreter(program)
        state = interp.initial_state(5)
        result = interp.step(state)
        assert isinstance(result, Next)
        result = interp.step(result.state)
        assert isinstance(result, Stuck)


class TestOperators:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1 + 2", 3),
            ("5 - 9", -4),
            ("3 * 4", 12),
            ("7 / 2", 3),
            ("7 % 2", 1),
            ("neg 5", -5),
            ("not 0", 1),
            ("not 7", 0),
            ("3 == 3", 1),
            ("3 != 3", 0),
            ("2 < 3", 1),
            ("3 <= 3", 1),
            ("2 > 3", 0),
            ("3 >= 4", 0),
            ("1 && 2", 1),
            ("0 || 0", 0),
        ],
    )
    def test_operator(self, expr, expected):
        program = parse_program(
            f"""
            main(n) {{
              decl x;
              x := {expr};
              return x;
            }}
            """
        )
        assert run_program(program, 0) == expected

    def test_truncating_division_negative(self):
        program = parse_program(
            """
            main(n) {
              decl x;
              x := n / 2;
              return x;
            }
            """
        )
        assert run_program(program, -7) == -3  # C-style truncation
