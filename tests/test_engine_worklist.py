"""The worklist guard-fixpoint solver vs. Definition 1.

The worklist engine (:class:`CobaltEngine`) must be *observationally
identical* to an engine whose guard facts come straight from the paper's
Definition 1 (:class:`DefinitionEngine`, path enumeration in
:mod:`repro.cobalt.semantics`): same ``guard_facts``, same ``Delta``
including order, same optimized programs — on the whole shipped suite and
on generated procedures (which are acyclic, where the definition is
exact), plus a looping program.  These tests pin that contract, the deterministic
ordering of ``legal_transformations``, the backward-meet fix for nodes off
every exit path, the narrowed failure handling in ``run_pure_analysis``,
and the :class:`EngineStats` observability layer.
"""

import pytest

from repro.il.ast import Assign, Const, IfGoto, Return, Var, VarLhs
from repro.il.cfg import Cfg
from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.il.parser import parse_program
from repro.il.program import Procedure
from repro.cobalt.dsl import PureAnalysis
from repro.cobalt.engine import CobaltEngine, EngineStats
from repro.cobalt.guards import GLabel, GTrue
from repro.cobalt.labels import standard_registry
from repro.cobalt.patterns import VarPat, parse_pattern_stmt
from repro.opts import ALL_ANALYSES, ALL_OPTIMIZATIONS, const_prop, dae

from repro.cobalt.semantics import guard_meaning_by_paths


@pytest.fixture()
def worklist():
    return CobaltEngine(standard_registry())


class DefinitionEngine(CobaltEngine):
    """A :class:`CobaltEngine` whose guard facts come straight from
    Definition 1 (path enumeration, :mod:`repro.cobalt.semantics`): exact
    on acyclic CFGs, path-length bounded on cyclic ones."""

    def guard_facts(self, psi1, psi2, direction, proc, labeling=None):
        if direction not in ("forward", "backward"):
            raise ValueError(f"unknown guard direction {direction!r}")
        return guard_meaning_by_paths(
            psi1, psi2, direction, proc, self.registry, labeling
        )


@pytest.fixture()
def reference():
    return DefinitionEngine(standard_registry())


def generated_procs(count, *, num_stmts=12, seed_base=0, **kw):
    return [
        ProgramGenerator(
            GeneratorConfig(num_stmts=num_stmts, **kw), seed=seed_base + s
        ).gen_proc()
        for s in range(count)
    ]


def canonical_facts(facts):
    """A byte string uniquely determined by a guard_facts result."""
    return "\n".join(
        ";".join(sorted(map(repr, fact))) for fact in facts
    ).encode()


# ---------------------------------------------------------------------------
# Cross-check: worklist == reference
# ---------------------------------------------------------------------------


class TestCrossCheck:
    def test_suite_guard_facts_byte_identical(self, worklist, reference):
        """Every shipped pattern computes byte-identical facts under both
        solvers, over a spread of generated programs."""
        procs = generated_procs(4, num_stmts=10) + generated_procs(
            2, num_stmts=20, seed_base=100, allow_pointers=True
        )
        for opt in ALL_OPTIMIZATIONS:
            pat = opt.pattern
            for proc in procs:
                a = worklist.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
                b = reference.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
                assert canonical_facts(a) == canonical_facts(b), (
                    f"facts diverge for {opt.name}"
                )

    def test_suite_transformations_identical(self, worklist, reference):
        """Applied-transformation lists (order included) and optimized
        procedures agree on the whole shipped optimization suite."""
        procs = generated_procs(3, num_stmts=14) + generated_procs(
            2, num_stmts=14, seed_base=50, allow_pointers=True
        )
        for opt in ALL_OPTIMIZATIONS:
            for proc in procs:
                out_wl, applied_wl = worklist.run_optimization(opt, proc)
                out_ref, applied_ref = reference.run_optimization(opt, proc)
                assert applied_wl == applied_ref, f"Delta diverges for {opt.name}"
                assert out_wl == out_ref, f"output diverges for {opt.name}"

    def test_suite_pure_analyses_identical(self, worklist, reference):
        for analysis in ALL_ANALYSES:
            for proc in generated_procs(3, num_stmts=12, allow_pointers=True):
                a = worklist.run_pure_analysis(analysis, proc)
                b = reference.run_pure_analysis(analysis, proc)
                assert a == b

    def test_iterated_and_composed_identical(self, worklist, reference):
        """The iterate loop and run_to_fixpoint — where state is derived
        across rewrites — stay identical too."""
        from dataclasses import replace

        from repro.opts import const_fold
        from repro.opts.algebraic import add_zero_right

        iterating = replace(dae, iterate=True)
        passes = [const_fold, const_prop, add_zero_right, dae]
        for proc in generated_procs(6, num_stmts=16, seed_base=7):
            out_wl, applied_wl = worklist.run_optimization(iterating, proc)
            out_ref, applied_ref = reference.run_optimization(iterating, proc)
            assert (out_wl, applied_wl) == (out_ref, applied_ref)
            fix_wl = worklist.run_to_fixpoint(passes, proc)
            fix_ref = reference.run_to_fixpoint(passes, proc)
            assert fix_wl == fix_ref

    def test_loops_and_unreachable_code(self, worklist, reference):
        """Back edges and unreachable regions — the worklist orderings'
        interesting cases."""
        proc = parse_program(
            """
            main(n) {
              decl i;
              decl s;
              decl t;
              i := 0;
              s := 2;
              t := i < n;
              if t goto 7 else 11;
              s := s + 1;
              i := i + 1;
              t := i < n;
              if t goto 7 else 11;
              s := 7;
              return s;
            }
            """
        ).proc("main")
        for opt in (const_prop, dae):
            pat = opt.pattern
            a = worklist.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
            b = reference.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
            assert canonical_facts(a) == canonical_facts(b)


# ---------------------------------------------------------------------------
# Memo and CFG reuse across rewrites
# ---------------------------------------------------------------------------


class TestMemoInvalidation:
    """An engine that already analysed a procedure must answer for the
    rewritten procedure exactly as a fresh engine does.  Each input makes
    one piece of the content-keyed reuse observable: the enumeration
    domains in the ``gen`` memo key, the node's labels in the ``keeps``
    memo key, and branch targets in the CFG-reuse test (``_edge_sig``)."""

    def test_gen_memo_keyed_by_enumeration_domains(self, reference):
        from repro.cobalt.guards import GNot
        from repro.opts import const_fold

        # psi1 binds X and C by enumeration over the procedure's variables
        # and constants, so gen at an unchanged statement depends on the
        # rest of the procedure; folding 2 + 3 swaps constants {2, 3} for
        # {5} without touching ``return b``.
        psi1 = GNot(GLabel("stmt", (parse_pattern_stmt("X := C"),)))
        proc = parse_program(
            "main(n) { decl b; b := 2 + 3; return b; }"
        ).proc("main")
        warm = CobaltEngine(standard_registry())
        warm.guard_facts(psi1, GTrue(), "forward", proc)
        folded, applied = warm.run_optimization(const_fold, proc)
        assert applied and folded.constants() != proc.constants()
        expected = reference.guard_facts(psi1, GTrue(), "forward", folded)
        fresh = CobaltEngine(standard_registry())
        for engine in (warm, fresh):
            got = engine.guard_facts(psi1, GTrue(), "forward", folded)
            assert canonical_facts(got) == canonical_facts(expected)

    def test_keeps_memo_keyed_by_node_labels(self, worklist, reference):
        from repro.cobalt.labels import Labeling

        # Nodes 3 and 4 hold the same statement; only node 3 carries the
        # label psi2 asks for, so the fact dies at node 4.
        proc = parse_program(
            "main(n) { decl a; decl b; a := 1; b := n; b := n; return a; }"
        ).proc("main")
        assert proc.stmt_at(3) == proc.stmt_at(4)
        labeling = Labeling()
        labeling.add(3, "notTainted", (Var("a"),))
        psi1 = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        psi2 = GLabel("notTainted", (VarPat("Y"),))
        got = worklist.guard_facts(psi1, psi2, "forward", proc, labeling)
        expected = reference.guard_facts(psi1, psi2, "forward", proc, labeling)
        assert canonical_facts(got) == canonical_facts(expected)
        assert got[5] == frozenset(), "node 4 carries no label: nothing survives"

    def test_cfg_rebuilt_when_a_rewrite_retargets_a_branch(self, worklist):
        from repro.opts import branch_fold

        # Folding ``if 1 goto 3 else 5`` to ``if 1 goto 3 else 3`` cuts
        # node 5 off, so x is 2 wherever ``y := x`` is reached and constant
        # propagation rewrites it — but only over the new edges.
        proc = parse_program(
            """
            main(n) {
              decl x;
              decl y;
              if 1 goto 3 else 5;
              x := 2;
              if 1 goto 6 else 6;
              x := 3;
              y := x;
              return y;
            }
            """
        ).proc("main")
        folded, applied = worklist.run_optimization(branch_fold, proc)
        assert applied
        assert Cfg.build(folded).succs != Cfg.build(proc).succs
        warm_out, _ = worklist.run_optimization(const_prop, folded)
        fresh = CobaltEngine(standard_registry())
        fresh_out, _ = fresh.run_optimization(const_prop, folded)
        assert warm_out == fresh_out
        assert warm_out.stmt_at(6) == Assign(VarLhs(Var("y")), Const(2))


# ---------------------------------------------------------------------------
# Deterministic Delta ordering (satellite)
# ---------------------------------------------------------------------------


class TestDeterministicDelta:
    def test_delta_stable_across_runs_and_engines(self):
        """Same Delta — order included — across repeated runs, across
        fresh engines, and across the two solvers, on 50+ generated
        procedures (one forward and one backward pattern)."""
        procs = generated_procs(50, num_stmts=12)
        wl1 = CobaltEngine(standard_registry())
        wl2 = CobaltEngine(standard_registry())
        ref = DefinitionEngine(standard_registry())
        for opt in (const_prop, dae):
            for proc in procs:
                first = wl1.legal_transformations(opt.pattern, proc)
                again = wl1.legal_transformations(opt.pattern, proc)
                fresh = wl2.legal_transformations(opt.pattern, proc)
                sweep = ref.legal_transformations(opt.pattern, proc)
                assert first == again == fresh == sweep


# ---------------------------------------------------------------------------
# Backward meet ordering (satellite regression)
# ---------------------------------------------------------------------------


class TestBackwardMeetOffPath:
    def _fall_off_proc(self):
        # 0: if n goto 1 else 2 / 1: return n / 2: a := 1  <- falls off
        # the end: no successors, not a return, off every exit path.
        return Procedure(
            "main",
            "n",
            (
                IfGoto(Var("n"), 1, 2),
                Return(Var("n")),
                Assign(VarLhs(Var("a")), Const(1)),
            ),
        )

    @pytest.mark.parametrize("mode", ["worklist", "reference"])
    def test_fall_off_the_end_gets_universe(self, mode):
        """A non-return node with no successors is off every entry-to-exit
        path, so its backward fact is the vacuously-full universe — not
        the empty region a true return contributes."""
        engine = (DefinitionEngine if mode == "reference" else CobaltEngine)(
            standard_registry()
        )
        proc = self._fall_off_proc()
        psi1 = GLabel("stmt", (parse_pattern_stmt("X := C"),))
        facts = engine.guard_facts(psi1, GTrue(), "backward", proc)
        universe = frozenset().union(*(
            engine.guard_facts(psi1, GTrue(), "backward", proc)[i]
            for i in range(len(proc.stmts))
        )) or frozenset()
        # The generating node (a := 1) makes the universe non-empty.
        assert any(facts)
        # The true return still carries the empty region...
        assert facts[1] == frozenset()
        # ...while the fall-off-the-end node carries the full fact.
        assert facts[2] == universe
        assert facts[2] != frozenset()

    def test_both_engines_agree_on_fall_off_proc(self):
        proc = self._fall_off_proc()
        psi1 = GLabel("stmt", (parse_pattern_stmt("X := C"),))
        wl = CobaltEngine(standard_registry())
        ref = DefinitionEngine(standard_registry())
        assert canonical_facts(
            wl.guard_facts(psi1, GTrue(), "backward", proc)
        ) == canonical_facts(ref.guard_facts(psi1, GTrue(), "backward", proc))


# ---------------------------------------------------------------------------
# run_pure_analysis failure handling (satellite)
# ---------------------------------------------------------------------------


class TestPureAnalysisErrors:
    def _unbound_analysis(self):
        # psi1 = true binds nothing, so the label argument X is unbound in
        # every fact substitution: each instantiation fails benignly.
        return PureAnalysis(
            name="unboundLabel",
            psi1=GTrue(),
            psi2=GTrue(),
            label_name="notTainted",
            label_args=(VarPat("X"),),
            witness=None,
        )

    def test_unbound_label_args_are_skipped(self, worklist):
        proc = parse_program("main(n) { decl a; a := 1; return a; }").proc("main")
        labeling = worklist.run_pure_analysis(self._unbound_analysis(), proc)
        assert labeling.entries == {}

    def test_real_engine_bugs_propagate(self, worklist, monkeypatch):
        """Only the instantiation failure (unbound pattern variable) is
        swallowed; any other exception surfaces instead of silently
        dropping labels."""
        import repro.cobalt.engine as engine_mod

        def boom(term, theta):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(engine_mod, "instantiate_term", boom)
        proc = parse_program("main(n) { decl a; a := 1; return a; }").proc("main")
        with pytest.raises(RuntimeError, match="engine bug"):
            worklist.run_pure_analysis(self._unbound_analysis(), proc)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestEngineStats:
    def test_counters_populated(self, worklist):
        proc = generated_procs(1, num_stmts=16)[0]
        worklist.run_optimization(const_prop, proc)
        stats = worklist.stats
        assert stats.guard_facts_calls >= 1
        assert stats.worklist_pops > 0
        assert stats.keeps_evals + stats.keeps_hits > 0
        assert stats.gen_evals > 0
        assert stats.guard_s > 0.0
        assert 0.0 <= stats.keeps_hit_rate <= 1.0
        assert "worklist pops" in stats.table()

    def test_reset_returns_snapshot(self, worklist):
        proc = generated_procs(1, num_stmts=8)[0]
        worklist.run_optimization(const_prop, proc)
        snap = worklist.reset_stats()
        assert snap.guard_facts_calls >= 1
        assert worklist.stats.guard_facts_calls == 0
        assert worklist.stats == EngineStats()

    def test_memoization_pays_off_across_iteration(self):
        """The iterate loop re-analyzes only what changed: the engine's
        check evaluations stay well below those of the same engine with its
        memo emptied before every fixpoint, on an iterated DAE chain."""
        from dataclasses import replace

        proc = parse_program(
            """
            main(n) {
              decl a;
              decl b;
              decl c;
              a := n;
              b := a;
              c := b;
              c := 1;
              return c;
            }
            """
        ).proc("main")
        iterating = replace(dae, iterate=True)
        class Forgetful(CobaltEngine):
            def guard_facts(self, *args, **kwargs):
                self._keeps_memo.clear()
                return super().guard_facts(*args, **kwargs)

        wl = CobaltEngine(standard_registry())
        cold = Forgetful(standard_registry())
        ref = DefinitionEngine(standard_registry())
        out_wl, applied_wl = wl.run_optimization(iterating, proc)
        assert cold.run_optimization(iterating, proc) == (out_wl, applied_wl)
        assert ref.run_optimization(iterating, proc) == (out_wl, applied_wl)
        assert len(applied_wl) == 3
        assert wl.stats.keeps_evals < cold.stats.keeps_evals
        assert wl.stats.keeps_hits > 0
        # The rewrite preserved CFG shape, so the derived states never
        # rebuilt the graph after the first construction.
        assert wl.stats.cfg_builds == 1

    def test_invalid_mode_rejected(self):
        """The engine has one solver: the removed ``mode`` switch is an
        error, not a silently ignored keyword."""
        with pytest.raises(TypeError):
            CobaltEngine(standard_registry(), mode="reference")

    def test_invalid_direction_rejected(self, worklist):
        proc = generated_procs(1, num_stmts=4)[0]
        with pytest.raises(ValueError):
            worklist.guard_facts(GTrue(), GTrue(), "sideways", proc)


# ---------------------------------------------------------------------------
# Traversal orders
# ---------------------------------------------------------------------------


class TestCfgOrders:
    def test_reverse_postorder_visits_before_successors(self):
        proc = parse_program(
            """
            main(n) {
              decl a;
              if n goto 2 else 3;
              a := 1;
              a := 2;
              return a;
            }
            """
        ).proc("main")
        cfg = Cfg.build(proc)
        rpo = cfg.reverse_postorder()
        assert sorted(rpo) == list(range(len(proc.stmts)))
        pos = {node: i for i, node in enumerate(rpo)}
        assert pos[0] == 0
        assert pos[1] < pos[2] and pos[1] < pos[3]
        assert pos[2] < pos[4] and pos[3] < pos[4]
        po = cfg.postorder()
        assert tuple(reversed(po)) == rpo

    def test_orders_cover_unreachable_nodes(self):
        proc = Procedure(
            "main",
            "n",
            (
                IfGoto(Var("n"), 2, 2),
                Assign(VarLhs(Var("a")), Const(5)),  # unreachable
                Return(Var("n")),
            ),
        )
        cfg = Cfg.build(proc)
        assert sorted(cfg.reverse_postorder()) == [0, 1, 2]
        assert sorted(cfg.postorder()) == [0, 1, 2]
        assert 1 not in cfg.reachable_from_entry()
