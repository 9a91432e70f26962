"""Tests for the textual Cobalt concrete syntax (paper-style notation)."""

import pytest

from repro.il.parser import parse_program
from repro.il.ast import Var, Const
from repro.cobalt.dsl import BackwardPattern, ForwardPattern, PureAnalysis
from repro.cobalt.engine import CobaltEngine
from repro.cobalt.guards import GAnd, GLabel, GNot, GOr
from repro.cobalt.labels import standard_registry
from repro.cobalt.parser import (
    CobaltSyntaxError,
    parse_blocks,
    parse_guard,
    parse_optimization,
    parse_pure_analysis,
    parse_witness,
    split_blocks,
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

CONST_PROP_SRC = """
forward optimization constProp {
  stmt(Y := C)
  followed by
  !mayDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}
"""

DAE_SRC = """
backward optimization deadAssignElim {
  (stmt(X := ...) || stmt(return ...)) && !mayUse(X)
  preceded by
  !mayUse(X)
  since
  X := E  =>  skip
  with witness
  etaOld/X == etaNew/X
}
"""

TAINT_SRC = """
analysis taintedness {
  stmt(decl X)
  followed by
  !stmt(... := &X)
  defines
  notTainted(X)
  with witness
  notPointedTo(X)
}
"""


class TestOptimizationParsing:
    def test_const_prop_shape(self):
        pattern = parse_optimization(CONST_PROP_SRC)
        assert isinstance(pattern, ForwardPattern)
        assert pattern.name == "constProp"
        assert isinstance(pattern.witness, VarEqConst)
        assert isinstance(pattern.psi2, GNot)

    def test_parsed_const_prop_behaves_like_library_version(self):
        from repro.opts import const_prop
        from repro.cobalt.dsl import Optimization

        pattern = parse_optimization(CONST_PROP_SRC)
        engine = CobaltEngine(standard_registry())
        proc = parse_program(
            """
            main(n) {
              decl a;
              decl c;
              a := 2;
              c := a;
              return c;
            }
            """
        ).proc("main")
        parsed_delta = engine.legal_transformations(pattern, proc)
        library_delta = engine.legal_transformations(const_prop.pattern, proc)
        assert parsed_delta == library_delta
        assert len(parsed_delta) == 1

    def test_dae_shape(self):
        pattern = parse_optimization(DAE_SRC)
        assert isinstance(pattern, BackwardPattern)
        assert isinstance(pattern.witness, EqualExceptVar)
        assert isinstance(pattern.psi1, GAnd)
        assert isinstance(pattern.psi1.parts[0], GOr)

    def test_parsed_dae_transforms(self):
        pattern = parse_optimization(DAE_SRC)
        engine = CobaltEngine(standard_registry())
        proc = parse_program(
            """
            main(n) {
              decl x;
              x := 1;
              x := 2;
              return x;
            }
            """
        ).proc("main")
        delta = engine.legal_transformations(pattern, proc)
        assert any(inst.index == 1 for inst in delta)

    def test_parsed_pattern_proves_sound(self):
        from repro.prover import ProverConfig
        from repro.verify import SoundnessChecker

        pattern = parse_optimization(CONST_PROP_SRC)
        checker = SoundnessChecker(config=ProverConfig(timeout_s=90))
        assert checker.check_pattern(pattern).sound

    def test_missing_clause_rejected(self):
        with pytest.raises(CobaltSyntaxError):
            parse_optimization("forward optimization x { stmt(Y := C) until X := Y => X := C with witness true }")

    def test_missing_arrow_rejected(self):
        with pytest.raises(CobaltSyntaxError):
            parse_optimization(
                "forward optimization x { true followed by true until skip with witness true }"
            )


class TestComments:
    def test_comment_inside_a_block(self):
        source = CONST_PROP_SRC.replace(
            "stmt(Y := C)", "stmt(Y := C) // enabling stmt"
        ).replace("until", "/* the\n rewrite */ until")
        assert parse_optimization(source) == parse_optimization(CONST_PROP_SRC)

    def test_header_comment_starts_no_block(self):
        source = "// a constant propagation analysis\n" + CONST_PROP_SRC
        assert split_blocks(source) == [CONST_PROP_SRC.strip()]
        assert parse_blocks(source) == [parse_optimization(CONST_PROP_SRC)]


class TestAnalysisParsing:
    def test_taintedness(self):
        analysis = parse_pure_analysis(TAINT_SRC)
        assert isinstance(analysis, PureAnalysis)
        assert analysis.label_name == "notTainted"
        assert isinstance(analysis.witness, NotPointedTo)

    def test_parsed_analysis_runs(self):
        analysis = parse_pure_analysis(TAINT_SRC)
        engine = CobaltEngine(standard_registry())
        proc = parse_program(
            """
            main(n) {
              decl a;
              decl p;
              p := &a;
              return n;
            }
            """
        ).proc("main")
        labeling = engine.run_pure_analysis(analysis, proc)
        # p stays untainted everywhere after its decl; a is tainted after node 2.
        assert labeling.has(2, "notTainted", (Var("p"),))
        assert labeling.has(2, "notTainted", (Var("a"),))
        assert not labeling.has(3, "notTainted", (Var("a"),))


class TestGuardSyntax:
    def test_precedence(self):
        guard = parse_guard("!mayDef(Y) && !mayUse(Y) || true")
        assert isinstance(guard, GOr)

    def test_parentheses(self):
        guard = parse_guard("!(mayDef(Y) || mayUse(Y))")
        assert isinstance(guard, GNot)
        assert isinstance(guard.body, GOr)

    def test_stmt_atom_with_nested_parens(self):
        guard = parse_guard("stmt(X := P(...))")
        assert isinstance(guard, GLabel) and guard.name == "stmt"

    def test_label_with_two_args(self):
        guard = parse_guard("exprUses(E, X)")
        assert guard == GLabel("exprUses", (__import__("repro.cobalt.patterns", fromlist=["ExprPat"]).ExprPat("E"), __import__("repro.cobalt.patterns", fromlist=["VarPat"]).VarPat("X")))

    def test_equality_atom(self):
        guard = parse_guard("X == Y")
        from repro.cobalt.guards import GEq

        assert isinstance(guard, GEq)

    def test_trailing_junk_rejected(self):
        with pytest.raises(CobaltSyntaxError):
            parse_guard("true true")


class TestWitnessSyntax:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("true", TrueWitness),
            ("eta(Y) == C", VarEqConst),
            ("eta(X) == eta(Y)", VarEqVar),
            ("eta(X) == eta(E)", VarEqExpr),
            ("etaOld/X == etaNew/X", EqualExceptVar),
            ("notPointedTo(X)", NotPointedTo),
            ("eta(X) == eta(E) && notPointedTo(X)", Conj),
        ],
    )
    def test_forms(self, text, cls):
        assert isinstance(parse_witness(text), cls)

    def test_mismatched_up_to_vars_rejected(self):
        with pytest.raises(CobaltSyntaxError):
            parse_witness("etaOld/X == etaNew/Y")

    def test_unknown_form_rejected(self):
        with pytest.raises(CobaltSyntaxError):
            parse_witness("eta is nice")
