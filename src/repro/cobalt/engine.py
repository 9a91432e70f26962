"""The Cobalt execution engine (paper section 5.2).

The engine runs optimizations directly from their Cobalt definitions: a
dataflow analysis whose facts are *sets of substitutions*, each substitution
representing a potential witnessing region.  The flow function adds the
substitutions that make ``psi1`` true at a node, propagates an incoming
substitution when the node satisfies ``psi2`` under it, and drops it
otherwise; merge points intersect.  At fixed point, a node whose fact
contains a substitution under which the node matches ``s`` is a legal
transformation site; the optimization's ``choose`` function then picks the
profitable subset, and the engine rewrites those statements to ``theta(s')``
(Definition 2).

Since the guard universally quantifies over CFG paths, the fixpoint is a
*greatest* fixpoint: facts start at the universe of generable substitutions
and shrink.

Two fixpoint solvers implement the same flow equations (see
``docs/ENGINE.md``):

* ``mode="worklist"`` (the default) — a priority worklist seeded in
  reverse postorder (forward guards) or postorder (backward guards) that
  re-examines only the neighbours of nodes whose fact changed, with
  memoized ``gen``/``keeps`` evaluation keyed by statement content so
  iterated passes re-analyze only what a rewrite actually changed.
* ``mode="reference"`` — the naive chaotic round-robin sweep, retained as
  the executable specification the worklist solver is cross-checked
  against (both compute the unique greatest fixpoint of a monotone
  system, so their results are identical by construction *and* by test).
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.il.ast import IfGoto, Return, Stmt
from repro.il.cfg import Cfg
from repro.il.program import Procedure, Program
from repro.cobalt.dsl import BackwardPattern, ForwardPattern, Optimization, PureAnalysis
from repro.cobalt.guards import (
    GLabel,
    GCase,
    GAnd,
    GOr,
    GNot,
    Guard,
    check,
    enumeration_domains,
    generate,
    instantiate_term,
)
from repro.cobalt.labels import (
    CaseLabel,
    LabelError,
    LabelRegistry,
    Labeling,
    NodeCtx,
    SemanticLabel,
)
from repro.cobalt.patterns import (
    ConstPat,
    ExprPat,
    FrozenSubst,
    PatternError,
    Subst,
    VarPat,
    freeze_subst,
    instantiate_stmt,
    match_stmt,
    subst_order_key,
    thaw_subst,
)


class InterferenceError(Exception):
    """Raised when a backward pattern consumes forward-analysis labels
    (disallowed by section 4.1 to prevent interference)."""


@dataclass(frozen=True)
class TransformationInstance:
    """One element of Delta: a node index plus its substitution."""

    index: int
    theta: FrozenSubst

    def subst(self) -> Subst:
        return thaw_subst(self.theta)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Counters and per-phase wall times accumulated by one engine.

    Counters are cumulative across all ``guard_facts``/``run_*`` calls
    since construction (or the last :meth:`reset`); read them after a run
    and compare snapshots to attribute work to a particular pass.
    """

    #: total guard fixpoints solved
    guard_facts_calls: int = 0
    #: full-CFG passes performed by the reference sweep solver
    sweeps: int = 0
    #: nodes popped off the priority worklist
    worklist_pops: int = 0
    #: ``check(psi2, theta, ctx)`` evaluations actually executed
    keeps_evals: int = 0
    #: ``keeps`` lookups answered from the memo table
    keeps_hits: int = 0
    #: ``generate(psi1)`` node evaluations actually executed
    gen_evals: int = 0
    #: ``gen`` lookups answered from the memo table
    gen_hits: int = 0
    #: CFG/reachability/order constructions
    cfg_builds: int = 0
    #: procedure states reused (incl. derived across rewrites)
    cfg_hits: int = 0
    #: statements rewritten by ``apply_pattern``
    transformations: int = 0
    #: wall time inside guard fixpoints
    guard_s: float = 0.0
    #: wall time matching facts into Delta (excludes the fixpoint)
    match_s: float = 0.0
    #: wall time instantiating pure-analysis labels (excludes the fixpoint)
    label_s: float = 0.0
    #: wall time choosing and applying rewrites
    apply_s: float = 0.0

    @property
    def keeps_hit_rate(self) -> float:
        total = self.keeps_evals + self.keeps_hits
        return self.keeps_hits / total if total else 0.0

    @property
    def gen_hit_rate(self) -> float:
        total = self.gen_evals + self.gen_hits
        return self.gen_hits / total if total else 0.0

    def snapshot(self) -> "EngineStats":
        return replace(self)

    def table(self) -> str:
        """A human-readable summary (the CLI's ``--engine-stats`` output)."""
        lines = [
            "engine stats:",
            f"  guard fixpoints          {self.guard_facts_calls}",
            f"  reference sweeps         {self.sweeps}",
            f"  worklist pops            {self.worklist_pops}",
            f"  keeps evals/hits         {self.keeps_evals}/{self.keeps_hits}"
            f" ({self.keeps_hit_rate:.1%} hit rate)",
            f"  gen evals/hits           {self.gen_evals}/{self.gen_hits}"
            f" ({self.gen_hit_rate:.1%} hit rate)",
            f"  cfg builds/reuses        {self.cfg_builds}/{self.cfg_hits}",
            f"  transformations applied  {self.transformations}",
            f"  phase wall time          guard {self.guard_s:.3f}s"
            f"  match {self.match_s:.3f}s  label {self.label_s:.3f}s"
            f"  apply {self.apply_s:.3f}s",
        ]
        return "\n".join(lines)

    def reset(self) -> None:
        fresh = EngineStats()
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(fresh, name))


# ---------------------------------------------------------------------------
# Per-procedure analysis state
# ---------------------------------------------------------------------------


def _edge_sig(s: Stmt) -> Tuple[object, ...]:
    """What a statement contributes to CFG shape (used to decide whether a
    rewrite can reuse the old graph)."""
    if isinstance(s, Return):
        return ("ret",)
    if isinstance(s, IfGoto):
        return ("br", s.then_index, s.else_index)
    return ("ft",)


class _ProcState:
    """One-time per-procedure constructions shared across guard fixpoints:
    the CFG, reachability sets, worklist priority orders, and the
    enumeration domains with their signature."""

    __slots__ = (
        "cfg", "on_path_fwd", "on_path_bwd", "rank_fwd", "rank_bwd", "domains", "domain_sig",
    )

    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        self.on_path_fwd = cfg.reachable_from_entry()
        self.on_path_bwd = cfg.reaching_exit()
        n = len(cfg.succs)
        self.rank_fwd = [0] * n
        for rank, node in enumerate(cfg.reverse_postorder()):
            self.rank_fwd[node] = rank
        self.rank_bwd = [0] * n
        for rank, node in enumerate(cfg.postorder()):
            self.rank_bwd[node] = rank
        self._set_domains(cfg.proc)

    def _set_domains(self, proc: Procedure) -> None:
        # The signature is everything the domains depend on (variables,
        # constants, expressions, statement count); procedures with equal
        # signatures share ``gen`` memo entries.
        self.domains = domains = enumeration_domains(proc)
        self.domain_sig = (
            domains[VarPat], domains[ConstPat], frozenset(domains[ExprPat]), len(proc.stmts),
        )

    @staticmethod
    def build(proc: Procedure) -> "_ProcState":
        return _ProcState(Cfg.build(proc))

    def derived(self, new_proc: Procedure, changed: Sequence[int]) -> "_ProcState":
        """The state of ``new_proc``, which differs from this state's
        procedure only at the ``changed`` indices.  When no changed
        statement alters CFG shape the graph, reachability, and orders
        carry over; only the enumeration domains are recomputed."""
        old = self.cfg.proc
        if any(
            _edge_sig(old.stmts[i]) != _edge_sig(new_proc.stmts[i]) for i in changed
        ):
            return _ProcState.build(new_proc)
        out = _ProcState.__new__(_ProcState)
        out.cfg = Cfg(new_proc, self.cfg.succs, self.cfg.preds)
        out.cfg._memo.update(self.cfg._memo)
        out.on_path_fwd = self.on_path_fwd
        out.on_path_bwd = self.on_path_bwd
        out.rank_fwd = self.rank_fwd
        out.rank_bwd = self.rank_bwd
        out._set_domains(new_proc)
        return out


_MISS = object()
_EMPTY_LABELS: FrozenSet[Tuple[str, Tuple[object, ...]]] = frozenset()
_KEEPS_MEMO_LIMIT = 1 << 20
_GEN_MEMO_LIMIT = 1 << 16
_PROC_STATE_LIMIT = 128


class CobaltEngine:
    """Executes Cobalt patterns, analyses, and optimizations over procedures.

    ``mode`` selects the guard fixpoint solver: ``"worklist"`` (default,
    memoized priority worklist) or ``"reference"`` (the chaotic sweep kept
    as the executable specification).  Both produce identical facts; see
    the module docstring and ``docs/ENGINE.md``.
    """

    def __init__(self, registry: LabelRegistry, mode: str = "worklist") -> None:
        if mode not in ("worklist", "reference"):
            raise ValueError(f"unknown engine mode {mode!r}")
        self.registry = registry
        self.mode = mode
        self.stats = EngineStats()
        # Memo tables.  Keys are *content-addressed* — the statement, the
        # node's semantic labels, and (for gen) the enumeration-domain
        # signature — so a rewrite invalidates exactly the entries of the
        # statements it changed, with no explicit bookkeeping.
        self._keeps_memo: Dict[Tuple[object, ...], bool] = {}
        self._gen_memo: Dict[Tuple[object, ...], FrozenSet[FrozenSubst]] = {}
        self._guard_keys: Dict[object, int] = {}
        self._stmt_keys: Dict[Stmt, int] = {}
        self._label_keys: Dict[FrozenSet, int] = {}
        self._domain_keys: Dict[Tuple[object, ...], int] = {}
        self._proc_states: "OrderedDict[Procedure, _ProcState]" = OrderedDict()

    def reset_stats(self) -> EngineStats:
        """Zero the stats counters; returns the pre-reset snapshot."""
        out = self.stats.snapshot()
        self.stats.reset()
        return out

    # -- interning / caching ----------------------------------------------------

    @staticmethod
    def _intern(table: Dict, value: object) -> int:
        key = table.get(value)
        if key is None:
            key = len(table) + 1
            table[value] = key
        return key

    def _state(self, proc: Procedure) -> _ProcState:
        state = self._proc_states.get(proc)
        if state is None:
            state = _ProcState.build(proc)
            self.stats.cfg_builds += 1
            self._proc_states[proc] = state
            if len(self._proc_states) > _PROC_STATE_LIMIT:
                self._proc_states.popitem(last=False)
        else:
            self.stats.cfg_hits += 1
            self._proc_states.move_to_end(proc)
        return state

    # -- guard dataflow ---------------------------------------------------------

    def _contexts(self, proc: Procedure, labeling: Labeling) -> Tuple[Cfg, List[NodeCtx]]:
        """Fresh CFG + contexts, built from scratch — the reference
        engine's (deliberately uncached) behavior."""
        cfg = Cfg.build(proc)
        self.stats.cfg_builds += 1
        domains = enumeration_domains(proc)
        ctxs = [NodeCtx(proc, cfg, i, self.registry, labeling, domains) for i in cfg.nodes()]
        return cfg, ctxs

    def guard_facts(
        self,
        psi1: Guard,
        psi2: Guard,
        direction: str,
        proc: Procedure,
        labeling: Optional[Labeling] = None,
    ) -> List[FrozenSet[FrozenSubst]]:
        """The fixed-point fact at each node: the meaning of the guard
        (Definition 1) as computed by the section 5.2 flow functions.

        For a forward guard the fact at node ``n`` describes paths *into*
        ``n``; for a backward guard, paths *out of* ``n``.
        """
        if direction not in ("forward", "backward"):
            raise ValueError(f"unknown guard direction {direction!r}")
        labeling = labeling or Labeling()
        start = time.perf_counter()
        self.stats.guard_facts_calls += 1
        try:
            if self.mode == "reference":
                return self._guard_facts_reference(psi1, psi2, direction, proc, labeling)
            return self._guard_facts_worklist(psi1, psi2, direction, proc, labeling)
        finally:
            self.stats.guard_s += time.perf_counter() - start

    # The flow equations (shared by both solvers, in both directions):
    #
    #   node_fact[i]: substitutions valid *after* visiting node i
    #   (forward: at its out edge; backward: at its in edge, i.e. the fact
    #   describing node i and everything execution-later).
    #
    #     meet(i)      = {} at the entry (forward) / at a return (backward)
    #                  = universe off every path (Definition 1 quantifies
    #                    over entry-to-exit *paths*, so a node no path
    #                    traverses carries the vacuously-full fact)
    #                  = AND of on-path neighbours' node_fact otherwise
    #     node_fact[i] = gen[i] | { theta in meet(i) : keeps(i, theta) }
    #     result[i]    = meet(i)
    #
    # node_fact is monotone (shrinking from the universe), so the greatest
    # fixpoint is unique and independent of evaluation order: the sweep
    # and the worklist provably agree.

    def _guard_facts_reference(
        self,
        psi1: Guard,
        psi2: Guard,
        direction: str,
        proc: Procedure,
        labeling: Labeling,
    ) -> List[FrozenSet[FrozenSubst]]:
        """The naive solver: round-robin chaotic sweeps until quiescence,
        no memoization.  Retained as the executable specification."""
        cfg, ctxs = self._contexts(proc, labeling)
        n = len(proc.stmts)

        gen: List[FrozenSet[FrozenSubst]] = []
        for i in range(n):
            self.stats.gen_evals += 1
            gen.append(frozenset(freeze_subst(t) for t in generate(psi1, {}, ctxs[i])))
        universe: FrozenSet[FrozenSubst] = frozenset().union(*gen) if gen else frozenset()

        def keeps(i: int, frozen: FrozenSubst) -> bool:
            self.stats.keeps_evals += 1
            return check(psi2, thaw_subst(frozen), ctxs[i])

        node_fact: List[FrozenSet[FrozenSubst]] = [universe] * n
        result: List[FrozenSet[FrozenSubst]] = [universe] * n
        if direction == "forward":
            on_path = cfg.reachable_from_entry()
        else:
            on_path = cfg.reaching_exit()

        changed = True
        while changed:
            changed = False
            self.stats.sweeps += 1
            for i in range(n):
                meet = self._meet(i, direction, cfg, on_path, node_fact, universe)
                out = gen[i] | frozenset(t for t in meet if keeps(i, t))
                if out != node_fact[i] or meet != result[i]:
                    node_fact[i] = out
                    result[i] = meet
                    changed = True
        return result

    def _guard_facts_worklist(
        self,
        psi1: Guard,
        psi2: Guard,
        direction: str,
        proc: Procedure,
        labeling: Labeling,
    ) -> List[FrozenSet[FrozenSubst]]:
        """The production solver: a priority worklist in reverse postorder
        (forward) / postorder (backward), re-examining only the neighbours
        of changed nodes, with content-keyed gen/keeps memoization."""
        state = self._state(proc)
        cfg = state.cfg
        n = len(proc.stmts)
        ctxs = [NodeCtx(proc, cfg, i, self.registry, labeling, state.domains) for i in range(n)]

        psi1_key = self._intern(self._guard_keys, psi1)
        psi2_key = self._intern(self._guard_keys, psi2)
        domain_key = self._intern(self._domain_keys, state.domain_sig)
        node_keys: List[Tuple[int, int]] = []
        for i in range(n):
            stmt_key = self._intern(self._stmt_keys, proc.stmts[i])
            entries = labeling.entries.get(i)
            label_key = (
                self._intern(self._label_keys, frozenset(entries)) if entries else 0
            )
            node_keys.append((stmt_key, label_key))

        if len(self._gen_memo) > _GEN_MEMO_LIMIT:
            self._gen_memo.clear()
        if len(self._keeps_memo) > _KEEPS_MEMO_LIMIT:
            self._keeps_memo.clear()

        gen: List[FrozenSet[FrozenSubst]] = []
        for i in range(n):
            key = (psi1_key, domain_key) + node_keys[i]
            fact = self._gen_memo.get(key)
            if fact is None:
                self.stats.gen_evals += 1
                fact = frozenset(freeze_subst(t) for t in generate(psi1, {}, ctxs[i]))
                self._gen_memo[key] = fact
            else:
                self.stats.gen_hits += 1
            gen.append(fact)
        universe: FrozenSet[FrozenSubst] = frozenset().union(*gen) if gen else frozenset()

        keeps_memo = self._keeps_memo
        stats = self.stats

        def keeps(i: int, frozen: FrozenSubst) -> bool:
            key = (psi2_key, node_keys[i][0], node_keys[i][1], frozen)
            value = keeps_memo.get(key, _MISS)
            if value is _MISS:
                stats.keeps_evals += 1
                value = check(psi2, thaw_subst(frozen), ctxs[i])
                keeps_memo[key] = value
            else:
                stats.keeps_hits += 1
            return value  # type: ignore[return-value]

        if direction == "forward":
            on_path = state.on_path_fwd
            rank = state.rank_fwd
            requeue = cfg.successors
        else:
            on_path = state.on_path_bwd
            rank = state.rank_bwd
            requeue = cfg.predecessors

        node_fact: List[FrozenSet[FrozenSubst]] = [universe] * n
        result: List[FrozenSet[FrozenSubst]] = [universe] * n
        heap: List[Tuple[int, int]] = [(rank[i], i) for i in range(n)]
        heapq.heapify(heap)
        queued = [True] * n
        while heap:
            _, i = heapq.heappop(heap)
            queued[i] = False
            stats.worklist_pops += 1
            meet = self._meet(i, direction, cfg, on_path, node_fact, universe)
            out = gen[i] | frozenset(t for t in meet if keeps(i, t))
            result[i] = meet
            if out != node_fact[i]:
                node_fact[i] = out
                for j in requeue(i):
                    # Off-path neighbours never read our fact (their meet
                    # is constant), so only on-path ones are re-examined.
                    if j in on_path and not queued[j]:
                        queued[j] = True
                        heapq.heappush(heap, (rank[j], j))
        return result

    @staticmethod
    def _meet(
        i: int,
        direction: str,
        cfg: Cfg,
        on_path: FrozenSet[int],
        node_fact: List[FrozenSet[FrozenSubst]],
        universe: FrozenSet[FrozenSubst],
    ) -> FrozenSet[FrozenSubst]:
        if direction == "forward":
            if i == cfg.entry:
                return frozenset()
            if i not in on_path:
                return universe
            preds = [p for p in cfg.predecessors(i) if p in on_path]
            meet = node_fact[preds[0]]
            for p in preds[1:]:
                meet = meet & node_fact[p]
            return meet
        # Backward.  The on-path test comes first: a non-return node with
        # no successors sits off every entry-to-exit path and so carries
        # the vacuously-full fact — only an actual return (which *is* on a
        # path ending at itself) contributes the empty region.
        if i not in on_path:
            return universe
        if not cfg.successors(i):
            # A return: the only path from here is the node itself, whose
            # region is empty.
            return frozenset()
        succs = [s for s in cfg.successors(i) if s in on_path]
        meet = node_fact[succs[0]]
        for s in succs[1:]:
            meet = meet & node_fact[s]
        return meet

    # -- transformation patterns -----------------------------------------------------

    def legal_transformations(
        self,
        pattern,
        proc: Procedure,
        labeling: Optional[Labeling] = None,
    ) -> List[TransformationInstance]:
        """``[[O_pat]](p)``: the set Delta of legal (index, theta) pairs."""
        self._check_interference(pattern, labeling)
        facts = self.guard_facts(
            pattern.psi1, pattern.psi2, pattern.direction, proc, labeling
        )
        start = time.perf_counter()
        delta: List[TransformationInstance] = []
        seen: Set[Tuple[int, FrozenSubst]] = set()
        kind = type(pattern.s)
        for i, fact in enumerate(facts):
            stmt = proc.stmt_at(i)
            if type(stmt) is not kind:
                continue  # match_stmt would reject every substitution
            for frozen in sorted(fact, key=subst_order_key):
                theta = match_stmt(pattern.s, stmt, thaw_subst(frozen))
                if theta is None:
                    continue
                for cond in pattern.computed:
                    theta = cond.compute(theta)
                    if theta is None:
                        break
                if theta is None:
                    continue
                key = (i, freeze_subst(theta))
                if key not in seen:
                    seen.add(key)
                    delta.append(TransformationInstance(i, freeze_subst(theta)))
        self.stats.match_s += time.perf_counter() - start
        return delta

    def apply_pattern(
        self,
        pattern,
        proc: Procedure,
        instances: Sequence[TransformationInstance],
    ) -> Procedure:
        """``app(s', p, Delta')``: rewrite each selected node to theta(s')."""
        updates: Dict[int, object] = {}
        for inst in instances:
            if inst.index in updates:
                continue  # Definition 2: one nondeterministic pick per index
            updates[inst.index] = instantiate_stmt(pattern.s_new, inst.subst())
        transformed = proc.with_stmts(updates)  # type: ignore[arg-type]
        transformed.validate()
        self.stats.transformations += len(updates)
        # Carry the analysis state across the rewrite: the new procedure
        # differs only at the updated indices, so (when CFG shape is
        # preserved) the graph, reachability, and orders are reused and an
        # iterated pass re-analyzes only the statements that changed.
        old_state = self._proc_states.get(proc)
        if old_state is not None and transformed not in self._proc_states:
            self._proc_states[transformed] = old_state.derived(
                transformed, list(updates)
            )
            self.stats.cfg_hits += 1
            if len(self._proc_states) > _PROC_STATE_LIMIT:
                self._proc_states.popitem(last=False)
        return transformed

    # -- optimizations ------------------------------------------------------------

    def run_optimization(
        self,
        opt: Optimization,
        proc: Procedure,
        labeling: Optional[Labeling] = None,
    ) -> Tuple[Procedure, List[TransformationInstance]]:
        """``[[O]](p)`` (Definition 2), plus the instances actually applied.

        The optimization's pure analyses are (re-)run first to populate the
        semantic labeling.  With ``opt.iterate`` the pattern is re-run on its
        own output until no more transformations fire.
        """
        applied: List[TransformationInstance] = []
        current = proc
        while True:
            lab = labeling or Labeling()
            for analysis in opt.analyses:
                lab = lab.merged_with(self.run_pure_analysis(analysis, current, lab))
            delta = self.legal_transformations(opt.pattern, current, lab)
            start = time.perf_counter()
            chosen = [t for t in opt.choose(delta, current) if t in delta]
            # Drop no-op rewrites so iteration terminates.
            effective = []
            for inst in chosen:
                new_stmt = instantiate_stmt(opt.pattern.s_new, inst.subst())
                if new_stmt != current.stmt_at(inst.index):
                    effective.append(inst)
            if not effective:
                self.stats.apply_s += time.perf_counter() - start
                return current, applied
            current = self.apply_pattern(opt.pattern, current, effective)
            applied.extend(effective)
            self.stats.apply_s += time.perf_counter() - start
            if not opt.iterate:
                return current, applied

    def run_pipeline(
        self, opts: Sequence[Optimization], proc: Procedure
    ) -> Tuple[Procedure, Dict[str, int]]:
        """Run optimizations in sequence; returns the result and a count of
        transformations per optimization name.  Engine statistics for the
        whole pipeline accumulate in :attr:`stats`."""
        counts: Dict[str, int] = {}
        current = proc
        for opt in opts:
            current, applied = self.run_optimization(opt, current)
            counts[opt.name] = counts.get(opt.name, 0) + len(applied)
        return current, counts

    def run_to_fixpoint(
        self,
        opts: Sequence[Optimization],
        proc: Procedure,
        *,
        max_iterations: int = 32,
    ) -> Tuple[Procedure, Dict[str, int]]:
        """Iterate a set of optimizations until none of them fires.

        This is the iterative form of the composition the paper gets from
        Whirlwind's framework (section 5.2): each pass re-analyses the
        previous passes' output, so mutually beneficial interactions (e.g.
        folding enabling propagation enabling dead-code elimination) are
        found without a fixed pass ordering.
        """
        counts: Dict[str, int] = {}
        current = proc
        for _ in range(max_iterations):
            changed = False
            for opt in opts:
                current_new, applied = self.run_optimization(opt, current)
                if applied:
                    changed = True
                    counts[opt.name] = counts.get(opt.name, 0) + len(applied)
                    current = current_new
            if not changed:
                break
        return current, counts

    def run_on_program(self, opt: Optimization, program: Program) -> Program:
        """Apply an optimization to every procedure of a program."""
        out = program
        for proc in program.procs:
            transformed, _ = self.run_optimization(opt, proc)
            out = out.with_proc(transformed)
        return out

    # -- pure analyses -----------------------------------------------------------

    def run_pure_analysis(
        self,
        analysis: PureAnalysis,
        proc: Procedure,
        labeling: Optional[Labeling] = None,
    ) -> Labeling:
        """Label the CFG with the analysis's new label (section 2.4)."""
        facts = self.guard_facts(
            analysis.psi1, analysis.psi2, "forward", proc, labeling
        )
        start = time.perf_counter()
        out = Labeling()
        for i, fact in enumerate(facts):
            for frozen in fact:
                theta = thaw_subst(frozen)
                try:
                    args = tuple(instantiate_term(a, theta) for a in analysis.label_args)
                except PatternError:
                    # The fact's substitution does not bind every variable
                    # of the label arguments (e.g. a guard satisfied
                    # vacuously); that substitution names no label
                    # instance.  Anything else is a real engine bug and
                    # propagates.
                    continue
                out.add(i, analysis.label_name, args)
        self.stats.label_s += time.perf_counter() - start
        return out

    # -- interference (section 4.1) ---------------------------------------------------

    def _check_interference(self, pattern, labeling: Optional[Labeling]) -> None:
        if pattern.direction != "backward":
            return
        semantic = self._semantic_labels_used(pattern.psi1) | self._semantic_labels_used(
            pattern.psi2
        )
        if semantic and labeling is not None and labeling.entries:
            raise InterferenceError(
                f"backward pattern {pattern.name} consumes forward-analysis "
                f"labels {sorted(semantic)}; disallowed (section 4.1)"
            )

    def _semantic_labels_used(self, guard: Guard, seen: Optional[Set[str]] = None) -> Set[str]:
        seen = seen if seen is not None else set()
        out: Set[str] = set()

        def walk(g: Guard) -> None:
            if isinstance(g, GNot):
                walk(g.body)
            elif isinstance(g, (GAnd, GOr)):
                for p in g.parts:
                    walk(p)
            elif isinstance(g, GCase):
                walk(g.default)
                for _, arm in g.arms:
                    walk(arm)
            elif isinstance(g, GLabel):
                name = g.name
                if name == "stmt" or name in seen:
                    return
                seen.add(name)
                try:
                    defn = self.registry.lookup(name)
                except LabelError:
                    # Undefined labels are reported when the guard is
                    # evaluated; here they simply contribute no dependency.
                    return
                if isinstance(defn, SemanticLabel):
                    out.add(name)
                elif isinstance(defn, CaseLabel):
                    walk(defn.body)

        walk(guard)
        return out
