"""Generating the optimization-specific proof obligations (section 4).

For a forward pattern ``psi1 followed by psi2 until s => s' with witness P``
the obligations are (4.2):

* **F1** — executing a statement satisfying ``psi1`` establishes the witness;
* **F2** — executing a statement satisfying ``psi2`` preserves the witness;
* **F3** — from a witness-satisfying state, ``s`` and ``s'`` step identically
  (including the footnote-6 progress condition: ``s'`` cannot get stuck when
  ``s`` does not).

For a backward pattern (4.3):

* **B1** — executing ``s`` (original) and ``s'`` (transformed) from the same
  state establishes the two-state witness;
* **B2** — an innocuous statement preserves the witness, and the transformed
  trace can take the step whenever the original can;
* **B3** — executing the enabling statement merges the two traces into the
  *same* state.

Pure analyses generate F1 and F2 only.

Obligations are closed formulas over Skolem constants (the negated
quantifiers of the paper's statements), with:

* the guard truths translated by :mod:`repro.verify.labels2logic`,
* rewrite-rule premises ``stmtAt(pi, iota) = theta(s)`` etc.,
* *case-split seeds*: ground instances of the statement/lvalue/expression
  kind exhaustiveness axioms for the statement terms under scrutiny (the
  analogue of the trigger engineering one does with Simplify),
* and the restriction of F1/F2/B2 to non-``return`` statements: a return
  has no CFG successor, so it is never an enabling or inner statement of a
  forward region nor an inner statement of a backward one (Theorems 1/2,
  docs/THEOREMS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.formulas import (
    And,
    Eq,
    Formula,
    Implies,
    Not,
    Or,
    Pred,
    conj,
    disj,
)
from repro.logic.terms import App, IntConst, Term, mk
from repro.cobalt.dsl import BackwardPattern, Computed, ForwardPattern, PureAnalysis
from repro.cobalt.guards import guard_leaves
from repro.cobalt.labels import LabelRegistry
from repro.cobalt.patterns import (
    ConstPat,
    ExprPat,
    IndexPat,
    OpPat,
    VarPat,
    Wildcard,
)
from repro.verify import encode as E
from repro.verify.labels2logic import (
    GuardTranslator,
    TranslationError,
    VarMap,
    encode_stmt,
    witness_to_logic,
)

PI = App("PI")  # the original program
PIT = App("PIt")  # the transformed program
ETA = App("ETA")  # the pre-state
ETA1 = App("ETA1")  # the post-state (forward obligations)
ETA_OLD = App("ETAold")  # witnessing-region state, original trace
ETA_NEW = App("ETAnew")  # witnessing-region state, transformed trace
ETA_OLD1 = App("ETAold1")
ETA_NEW1 = App("ETAnew1")


@dataclass(frozen=True)
class Obligation:
    """One closed goal formula for the prover, plus its case-split seeds.

    Seeds are valid ground instances of the kind-exhaustiveness axioms; they
    are handed to the prover as tagged auxiliary clauses so its case-split
    heuristic drives the statement-kind analysis first."""

    name: str
    goal: Formula
    seeds: Tuple[Formula, ...] = ()
    #: The statement term whose kind the obligation case-splits over (None
    #: when the statement's shape is fixed by the rewrite rule).  The checker
    #: discharges such obligations as one prover call per statement kind —
    #: the top level of the case analysis done outside the prover, keeping
    #: each call small.
    split_term: Optional[Term] = None

    def cases(self) -> List[Tuple[str, Formula]]:
        """The statement-kind case analysis, one named goal per case.

        Every backend proves exactly these goals: the internal prover in
        :func:`repro.verify.checker.discharge_obligation`, an external
        solver in :mod:`repro.prover.backends.smtlib`."""
        if self.split_term is None:
            return [(self.name, self.goal)]
        return [
            (
                f"{self.name}[{kind.fn}]",
                Implies(Eq(E.stmt_kind(self.split_term), kind), self.goal),
            )
            for kind in E.STMT_KINDS
        ]


def step_premises(eta: Term, eta2: Term, pi: Term) -> List[Formula]:
    """``eta ~>pi eta2`` in functional form: the step succeeds and eta2's
    components are the stepped components."""
    return [
        E.step_ok(eta, pi),
        Eq(E.s_index(eta2), E.step_index(eta, pi)),
        Eq(E.s_env(eta2), E.step_env(eta, pi)),
        Eq(E.s_store(eta2), E.step_store(eta, pi)),
        Eq(E.s_stack(eta2), E.step_stack(eta, pi)),
        Eq(E.s_mem(eta2), E.step_mem(eta, pi)),
    ]


def step_conclusion(eta: Term, eta2: Term, pi: Term) -> Formula:
    """``eta ~>pi eta2`` as a goal: same shape as the premises."""
    return conj(tuple(step_premises(eta, eta2, pi)))


_SEEDS_MEMO: Dict[Term, Tuple[Formula, ...]] = {}


def seeds_for(s_term: Term) -> List[Formula]:
    """Ground kind-exhaustiveness instances for a statement term and its
    projections (the case-split seeds).  The projection seeds are guarded by
    the statement kind so DPLL only splits on them when relevant.

    Memoized per (interned) statement term: the obligation builders call
    this with the same handful of program points for every pattern, and the
    seed formulas are immutable."""
    cached = _SEEDS_MEMO.get(s_term)
    if cached is not None:
        return list(cached)
    seeds = _seeds_for_compute(s_term)
    _SEEDS_MEMO[s_term] = tuple(seeds)
    return seeds


def _seeds_for_compute(s_term: Term) -> List[Formula]:
    return [
        E.kind_exhaustiveness(s_term, "stmtKind", E.STMT_KINDS),
        Implies(
            Eq(E.stmt_kind(s_term), E.K_ASSGN),
            E.kind_exhaustiveness(mk("assgnLhs", s_term), "lhsKind", E.LHS_KINDS),
        ),
        Implies(
            Eq(E.stmt_kind(s_term), E.K_ASSGN),
            E.kind_exhaustiveness(mk("assgnRhs", s_term), "exprKind", E.EXPR_KINDS),
        ),
        Implies(
            Eq(E.stmt_kind(s_term), E.K_IF),
            E.kind_exhaustiveness(mk("ifCond", s_term), "exprKind", E.EXPR_KINDS),
        ),
        Implies(
            Eq(E.stmt_kind(s_term), E.K_CALL),
            E.kind_exhaustiveness(mk("callArg", s_term), "exprKind", E.EXPR_KINDS),
        ),
    ]


class ObligationBuilder:
    """Builds the obligations of one pattern/analysis."""

    def __init__(
        self,
        registry: LabelRegistry,
        semantic_meanings: Optional[Dict[str, PureAnalysis]] = None,
    ) -> None:
        self.registry = registry
        self.semantic_meanings = dict(semantic_meanings or {})

    # -- shared setup -----------------------------------------------------------

    def _varmap(self, pattern) -> VarMap:
        vm = VarMap()
        leaves: set = set()
        leaves |= guard_leaves(pattern.psi1)
        leaves |= guard_leaves(pattern.psi2)
        from repro.cobalt.guards import _leaves_of

        for frag in (getattr(pattern, "s", None), getattr(pattern, "s_new", None)):
            if frag is not None:
                leaves |= set(_leaves_of(frag))
        for leaf in sorted(leaves, key=lambda l: getattr(l, "name", "")):
            if not isinstance(leaf, Wildcard):
                vm.term_for(leaf)
        return vm

    def _translator(self, vm: VarMap) -> GuardTranslator:
        return GuardTranslator(self.registry, vm, self.semantic_meanings)

    def _computed_premises(self, pattern, vm: VarMap) -> List[Formula]:
        out: List[Formula] = []
        for cond in getattr(pattern, "computed", ()):  # type: Computed
            if cond.premise == "fold":
                op = vm.entries["OP"]
                c1, c2, c3 = (vm.entries[n] for n in ("C1", "C2", "C3"))
                out.append(Eq(c3, E.apply_op(op, c1, c2)))
                out.append(E.op_args_ok(op, c1, c2))
                out.append(E.is_int_val(c3))
            elif cond.premise == "branch":
                c = vm.entries["C"]
                i1, i2, i3 = (vm.entries[n] for n in ("I1", "I2", "I3"))
                out.append(
                    disj(
                        (
                            conj((Not(Eq(c, IntConst(0))), Eq(i3, i1))),
                            conj((Eq(c, IntConst(0)), Eq(i3, i2))),
                        )
                    )
                )
            elif callable(cond.premise):
                out.append(cond.premise(vm))
            elif cond.premise is not None:
                raise TranslationError(f"unknown side-condition premise {cond.premise!r}")
        return out

    # -- forward (4.2) ----------------------------------------------------------

    def forward_obligations(self, pattern: ForwardPattern) -> List[Obligation]:
        vm = self._varmap(pattern)
        tr = self._translator(vm)
        s_at = E.stmt_at(PI, E.s_index(ETA))

        # F1: psi1 establishes the witness.
        psi1 = tr.translate(pattern.psi1, s_at, ETA)
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA, ETA1, PI)
            + [psi1, Not(Eq(E.stmt_kind(s_at), E.K_RET))]
        )
        f1 = Implies(conj(tuple(premises)), witness_to_logic(pattern.witness, (ETA1,), vm, tr))

        # F2: psi2 preserves the witness.
        psi2 = tr.translate(pattern.psi2, s_at, ETA)
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA, ETA1, PI)
            + [
                witness_to_logic(pattern.witness, (ETA,), vm, tr),
                psi2,
                Not(Eq(E.stmt_kind(s_at), E.K_RET)),
            ]
        )
        f2 = Implies(conj(tuple(premises)), witness_to_logic(pattern.witness, (ETA1,), vm, tr))

        # F3: s and s' step identically from a witness state (and s' makes
        # progress whenever s does).
        s_term = encode_stmt(pattern.s, vm)
        s_new_term = encode_stmt(pattern.s_new, vm)
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA, ETA1, PI)
            + self._computed_premises(pattern, vm)
            + [
                witness_to_logic(pattern.witness, (ETA,), vm, tr),
                Eq(s_at, s_term),
                Eq(E.stmt_at(PIT, E.s_index(ETA)), s_new_term),
            ]
        )
        f3 = Implies(conj(tuple(premises)), step_conclusion(ETA, ETA1, PIT))
        seeds = tuple(seeds_for(s_at))
        return [
            Obligation("F1", f1, seeds, s_at),
            Obligation("F2", f2, seeds, s_at),
            Obligation("F3", f3, seeds, None),
        ]

    # -- backward (4.3) ---------------------------------------------------------

    def backward_obligations(self, pattern: BackwardPattern) -> List[Obligation]:
        vm = self._varmap(pattern)
        tr = self._translator(vm)

        s_term = encode_stmt(pattern.s, vm)
        s_new_term = encode_stmt(pattern.s_new, vm)

        # B1: executing s (in pi) and s' (in pi') from the same state
        # establishes the witness between the successor states.
        s_at = E.stmt_at(PI, E.s_index(ETA))
        s_at_t = E.stmt_at(PIT, E.s_index(ETA))
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA, ETA_OLD, PI)
            + step_premises(ETA, ETA_NEW, PIT)
            + self._computed_premises(pattern, vm)
            + [Eq(s_at, s_term), Eq(s_at_t, s_new_term)]
        )
        b1 = Implies(
            conj(tuple(premises)),
            witness_to_logic(pattern.witness, (ETA_OLD, ETA_NEW), vm, tr),
        )

        # B2: innocuous statements preserve the witness, and the transformed
        # trace makes the same progress.
        s_at_old = E.stmt_at(PI, E.s_index(ETA_OLD))
        s_at_new = E.stmt_at(PIT, E.s_index(ETA_NEW))
        psi2 = tr.translate(pattern.psi2, s_at_old, ETA_OLD)
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA_OLD, ETA_OLD1, PI)
            + [
                witness_to_logic(pattern.witness, (ETA_OLD, ETA_NEW), vm, tr),
                psi2,
                Eq(s_at_old, s_at_new),
                Not(Eq(E.stmt_kind(s_at_old), E.K_RET)),
            ]
            # Define ETAnew1 as the stepped transformed state (functional
            # semantics make the existential witness definable).
            + [
                Eq(E.s_index(ETA_NEW1), E.step_index(ETA_NEW, PIT)),
                Eq(E.s_env(ETA_NEW1), E.step_env(ETA_NEW, PIT)),
                Eq(E.s_store(ETA_NEW1), E.step_store(ETA_NEW, PIT)),
                Eq(E.s_stack(ETA_NEW1), E.step_stack(ETA_NEW, PIT)),
                Eq(E.s_mem(ETA_NEW1), E.step_mem(ETA_NEW, PIT)),
            ]
        )
        b2 = Implies(
            conj(tuple(premises)),
            conj(
                (
                    E.step_ok(ETA_NEW, PIT),
                    witness_to_logic(pattern.witness, (ETA_OLD1, ETA_NEW1), vm, tr),
                )
            ),
        )

        # B3: the enabling statement merges the traces: eta_new steps in pi'
        # to exactly the state eta_old stepped to in pi.
        psi1 = tr.translate(pattern.psi1, s_at_old, ETA_OLD)
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA_OLD, ETA_OLD1, PI)
            + [
                witness_to_logic(pattern.witness, (ETA_OLD, ETA_NEW), vm, tr),
                psi1,
                Eq(s_at_old, s_at_new),
            ]
        )
        b3 = Implies(conj(tuple(premises)), step_conclusion(ETA_NEW, ETA_OLD1, PIT))
        obligations = [
            Obligation("B1", b1, tuple(seeds_for(s_at)), None),
            Obligation("B2", b2, tuple(seeds_for(s_at_old)), s_at_old),
            Obligation("B3", b3, tuple(seeds_for(s_at_old)), s_at_old),
        ]
        obligations.extend(
            self._insertion_progress_obligations(pattern, vm, tr, s_term, s_new_term)
        )
        return obligations

    def _insertion_progress_obligations(
        self, pattern: BackwardPattern, vm: VarMap, tr: GuardTranslator, s_term, s_new_term
    ) -> List[Obligation]:
        """The footnote-6 progress conditions for backward rewrites.

        B1 *premises* that the transformed statement steps; for rewrites
        that evaluate more than the original (statement insertion, a new
        right-hand side) that premise needs justification.  The argument is
        the backward witnessing region itself: the transformed statement's
        evaluations are exactly the enabling statement's, which the original
        trace performs successfully at the region's end; so we prove the
        *evaluability invariant* ``Safe(eta)`` — "theta(s')'s components
        evaluate successfully in eta" —

        * **B0a** established at the enabling statement (from the original
          program's own progress),
        * **B0b** preserved backward across innocuous statements
          (Safe after implies Safe before), and
        * **B0c** sufficient for the transformed statement to step.

        Backward induction along the region (Theorem 2's construction,
        docs/THEOREMS.md) then discharges B1's premise.  For ``s' = skip``
        the invariant is trivially true and no obligations are emitted.
        """
        safe_of = self._safe_exprs(pattern.s_new, vm)
        if safe_of is None:
            return []

        s_at_old = E.stmt_at(PI, E.s_index(ETA_OLD))
        psi1 = tr.translate(pattern.psi1, s_at_old, ETA_OLD)
        premises = (
            list(vm.sort_premises)
            + seeds_for(s_at_old)
            + step_premises(ETA_OLD, ETA_OLD1, PI)
            + [psi1]
        )
        b0a = Implies(conj(tuple(premises)), safe_of(ETA_OLD))

        psi2 = tr.translate(pattern.psi2, s_at_old, ETA_OLD)
        premises = (
            list(vm.sort_premises)
            + seeds_for(s_at_old)
            + step_premises(ETA_OLD, ETA_OLD1, PI)
            + [
                safe_of(ETA_OLD1),
                psi2,
                Not(Eq(E.stmt_kind(s_at_old), E.K_RET)),
            ]
        )
        b0b = Implies(conj(tuple(premises)), safe_of(ETA_OLD))

        s_at = E.stmt_at(PI, E.s_index(ETA))
        premises = (
            list(vm.sort_premises)
            + [
                safe_of(ETA),
                Eq(s_at, s_term),
                Eq(E.stmt_at(PIT, E.s_index(ETA)), s_new_term),
            ]
        )
        b0c = Implies(conj(tuple(premises)), E.step_ok(ETA, PIT))
        return [
            Obligation("B0a", b0a, tuple(seeds_for(s_at_old)), s_at_old),
            Obligation("B0b", b0b, tuple(seeds_for(s_at_old)), s_at_old),
            Obligation("B0c", b0c, (), None),
        ]

    def _safe_exprs(self, s_new, vm: VarMap):
        """``Safe(eta)`` for the rewritten statement: a function of a state
        term, or None when trivially true (s' = skip)."""
        from repro.il.ast import Assign, Skip, VarLhs, DerefLhs
        from repro.verify.labels2logic import encode_expr, encode_id

        if isinstance(s_new, Skip):
            return None
        if isinstance(s_new, Assign):
            if isinstance(s_new.lhs, VarLhs):
                lhs_term = E.lvar(encode_id(s_new.lhs.var, vm))
            elif isinstance(s_new.lhs, DerefLhs):
                lhs_term = E.lderef(encode_id(s_new.lhs.var, vm))
            else:
                raise TranslationError("wildcard lhs in a rewrite rule")
            rhs_term = encode_expr(s_new.rhs, vm)

            def safe(eta):
                return conj((E.lval_ok(eta, lhs_term), E.eval_ok(eta, rhs_term)))

            return safe
        raise TranslationError(
            f"no progress (footnote 6) encoding for rewritten statement {s_new!r}"
        )

    # -- pure analyses (2.4 / 4.2) -------------------------------------------------

    def analysis_obligations(self, analysis: PureAnalysis) -> List[Obligation]:
        vm = VarMap()
        leaves = guard_leaves(analysis.psi1) | guard_leaves(analysis.psi2)
        for a in analysis.label_args:
            if not isinstance(a, Wildcard):
                vm.term_for(a)
        for leaf in sorted(leaves, key=lambda l: getattr(l, "name", "")):
            if not isinstance(leaf, Wildcard):
                vm.term_for(leaf)
        tr = self._translator(vm)
        s_at = E.stmt_at(PI, E.s_index(ETA))

        psi1 = tr.translate(analysis.psi1, s_at, ETA)
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA, ETA1, PI)
            + [psi1, Not(Eq(E.stmt_kind(s_at), E.K_RET))]
        )
        f1 = Implies(conj(tuple(premises)), witness_to_logic(analysis.witness, (ETA1,), vm, tr))

        psi2 = tr.translate(analysis.psi2, s_at, ETA)
        premises = (
            list(vm.sort_premises)
            + step_premises(ETA, ETA1, PI)
            + [
                witness_to_logic(analysis.witness, (ETA,), vm, tr),
                psi2,
                Not(Eq(E.stmt_kind(s_at), E.K_RET)),
            ]
        )
        f2 = Implies(conj(tuple(premises)), witness_to_logic(analysis.witness, (ETA1,), vm, tr))
        seeds = tuple(seeds_for(s_at))
        return [Obligation("F1", f1, seeds, s_at), Obligation("F2", f2, seeds, s_at)]
