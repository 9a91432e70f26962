"""The refutation prover: DPLL case splitting over ground clauses, theory
reasoning via the E-graph, and quantifier instantiation by E-matching.

The public entry point is :class:`Prover`.  A ``Prover`` is constructed with
a set of background axioms (the optimization-independent IL semantics plus
the optimization-dependent label axioms, see :mod:`repro.verify.encode`) and
asked to prove goals.  Internally the goal is negated, clausified, and the
prover searches for a refutation:

* **propagation** — evaluate ground literals against the E-graph; clauses
  with all-false literals close the branch, unit clauses are asserted;
* **case splitting** — pick an undetermined literal and try both truth
  values (this is where ``k1 = k2 \\/ select(update(m,k1,v),k2) = select(m,k2)``
  style axioms get their case analysis);
* **instantiation rounds** — when a branch is propositionally satisfied,
  E-match the quantified clauses' triggers against the E-graph and add any
  new ground instances, then continue.

``PROVED`` answers are sound.  When the instantiation rounds dry up while a
consistent branch remains, the prover answers ``UNKNOWN`` and reports the
branch's asserted literals — the *counterexample context*, just as Simplify
does (section 7 of the paper).

The search is incremental (docs/PROVER.md): Simplify's mod-times restrict
each instantiation round's E-matching to structure created or merged since
the previous round, and ground-clause propagation is driven by watched
class roots — a clause is re-evaluated only when an E-graph event touches
a class one of its undetermined atoms mentions.  ``tests/`` checks the
watched scan against a naive rescan and the restricted matching against a
full re-match.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.logic import intern
from repro.logic.formulas import (
    Clause,
    Eq,
    Formula,
    Literal,
    Not,
    Pred,
    clausify,
)
from repro.logic.terms import App, LVar, Term, free_vars, term_size, term_str
from repro.prover.kernels import (
    DEFAULT_KERNEL,
    FlatEGraph,
    compiled_trigger,
    flat_ematch,
    kernel_identity,
)
from repro.prover.kernels.flat import (
    EGraphConflict,
    FALSE,
    MatchTimeout,
    TRUE,
    inverse_symbol,
)


class Status(Enum):
    PROVED = "proved"
    UNKNOWN = "unknown"


@dataclass
class ProverConfig:
    """Resource limits and search heuristics for one ``prove`` call."""

    max_rounds: int = 12  # quantifier-instantiation rounds per branch
    max_instances: int = 20_000  # total ground instances per prove call
    max_decisions: int = 200_000
    timeout_s: float = 120.0
    #: Debug/test hook: record the canonical keys of the instances admitted
    #: by each instantiation round (``Result.round_instances``; used by the
    #: round-by-round full-re-match tests).
    record_round_instances: bool = False
    #: The e-graph kernel every search runs on (docs/KERNELS.md).  A class
    #: constant, not an option: there is one kernel.
    kernel: ClassVar[str] = DEFAULT_KERNEL


def default_split_priority(lit: "Literal", clause: "Clause") -> int:
    """Split preference (clause-level): seed clauses first, ordinary clauses
    next, kind-conditional clauses never.

    A clause containing a constructor-kind discrimination (``stmtKind(t) =
    K_...``) outside the seeds is a conditional-semantics instance for a
    term of *unknown* kind; deciding any of its literals only spawns phantom
    structure (projections of opaque terms, their evaluations, ...), blowing
    up the search without contributing to refutations.  Such clauses return
    -1 and the search refuses to split on them — any case analysis over
    kinds must come from a deliberately seeded exhaustiveness instance.
    This loses only completeness, never soundness.
    """
    if "seed" in clause.origin:
        return 2
    if "nosplit" in clause.origin:
        return -1
    if _is_kind_literal(lit):
        return -1
    return 0


#: ``_is_kind_literal`` results per literal — a pure structural property,
#: probed for every literal of every admitted instance every round, and
#: literals are hash-consed, so the memo is small and hit-dominated.
_KIND_MEMO: Dict["Literal", bool] = {}


def _is_kind_literal(lit: "Literal") -> bool:
    hit = _KIND_MEMO.get(lit)
    if hit is not None:
        return hit
    atom = lit.atom
    out = False
    if isinstance(atom, Eq):
        for side in (atom.lhs, atom.rhs):
            if isinstance(side, App) and not side.args and (
                side.fn.startswith("K_")
                or side.fn.startswith("EK_")
                or side.fn.startswith("LK_")
            ):
                out = True
                break
    if len(_KIND_MEMO) >= 65536:
        _KIND_MEMO.clear()
    _KIND_MEMO[lit] = out
    return out


@dataclass
class RoundStats:
    """One instantiation round's yield (see ``ProverStats.round_log``)."""

    round: int
    match_s: float
    bindings: int  # bindings enumerated by E-matching
    fresh: int  # new ground instances admitted
    deferred: int  # instances held back by the relevance guard
    dedup_hits: int  # bindings whose instance was already known


@dataclass
class ProverStats:
    """Observability counters for one ``prove`` call (``Result.stats``)."""

    decisions: int = 0
    propagations: int = 0
    instances: int = 0
    rounds: int = 0
    elapsed_s: float = 0.0
    lit_evals: int = 0  # ground literal evaluations against the E-graph
    clause_evals: int = 0  # full ground-clause evaluations
    scan_passes: int = 0  # propagation passes over the ground clauses
    wakeups: int = 0  # clauses woken by an E-graph event (incremental)
    watch_moves: int = 0  # watcher registrations (incremental)
    bindings: int = 0  # E-matching bindings enumerated
    dedup_hits: int = 0  # bindings deduplicated against known instances
    match_s: float = 0.0  # wall time spent in instantiation rounds
    # Interning/memoization deltas attributed to this call (the global
    # counters live in repro.logic.intern.STATS; run() snapshots them).
    intern_table: int = 0  # live interned nodes when the call finished
    intern_hits: int = 0  # constructor calls answered from the intern table
    intern_misses: int = 0  # constructor calls that built a new node
    subst_hits: int = 0  # memoized term/formula/clause substitutions
    subst_misses: int = 0
    free_vars_hits: int = 0  # cached free-variable set reads
    pipeline_hits: int = 0  # memoized nnf/skolemize/clausify calls
    pipeline_misses: int = 0
    #: Kernel identity ("flat/pure-python" or "flat/compiled") and its
    #: structural-visit count (Python-level object-graph touches).
    kernel: str = ""
    struct_visits: int = 0
    #: Per-round yields, capped at 1000 entries.  Not merged by ``merge``.
    round_log: List[RoundStats] = field(default_factory=list)

    def merge(self, other: "ProverStats") -> None:
        """Accumulate another call's counters (round_log is not merged)."""
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.instances += other.instances
        self.rounds += other.rounds
        self.elapsed_s += other.elapsed_s
        self.lit_evals += other.lit_evals
        self.clause_evals += other.clause_evals
        self.scan_passes += other.scan_passes
        self.wakeups += other.wakeups
        self.watch_moves += other.watch_moves
        self.bindings += other.bindings
        self.dedup_hits += other.dedup_hits
        self.match_s += other.match_s
        self.intern_table = max(self.intern_table, other.intern_table)
        self.intern_hits += other.intern_hits
        self.intern_misses += other.intern_misses
        self.subst_hits += other.subst_hits
        self.subst_misses += other.subst_misses
        self.free_vars_hits += other.free_vars_hits
        self.pipeline_hits += other.pipeline_hits
        self.pipeline_misses += other.pipeline_misses
        self.struct_visits += other.struct_visits
        if not self.kernel:
            self.kernel = other.kernel

    @property
    def dedup_rate(self) -> float:
        """Fraction of enumerated bindings that were already known."""
        return self.dedup_hits / self.bindings if self.bindings else 0.0

    @staticmethod
    def _rate(hits: int, misses: int) -> str:
        total = hits + misses
        if not total:
            return "-"
        return f"{100.0 * hits / total:.1f}%  ({hits:,}/{total:,})"

    def table(self) -> str:
        """A human-readable rendering for ``--prover-stats``."""
        rows = [
            ("kernel", self.kernel or "-"),
            ("structural visits", f"{self.struct_visits:,}"),
            ("decisions", f"{self.decisions}"),
            ("unit propagations", f"{self.propagations}"),
            ("scan passes", f"{self.scan_passes}"),
            ("clause evaluations", f"{self.clause_evals}"),
            ("literal evaluations", f"{self.lit_evals}"),
            ("watch wakeups", f"{self.wakeups}"),
            ("watch registrations", f"{self.watch_moves}"),
            ("instantiation rounds", f"{self.rounds}"),
            ("match bindings", f"{self.bindings}"),
            ("instances admitted", f"{self.instances}"),
            ("dedup hit rate", f"{100.0 * self.dedup_rate:.1f}%"),
            ("match time", f"{self.match_s:.3f}s"),
            ("total time", f"{self.elapsed_s:.3f}s"),
            ("intern table size", f"{self.intern_table:,}"),
            ("intern hit rate", self._rate(self.intern_hits, self.intern_misses)),
            ("subst memo hit rate", self._rate(self.subst_hits, self.subst_misses)),
            ("pipeline memo hit rate", self._rate(self.pipeline_hits, self.pipeline_misses)),
            ("free-vars cache hits", f"{self.free_vars_hits:,}"),
        ]
        width = max(len(label) for label, _ in rows)
        lines = ["prover stats:"]
        lines += [f"  {label:<{width}}  {value}" for label, value in rows]
        if self.round_log and len(self.round_log) <= 12:
            lines.append("  per-round match yield:")
            for r in self.round_log:
                lines.append(
                    f"    round {r.round:>3}: {r.bindings} bindings, "
                    f"{r.fresh} fresh, {r.deferred} deferred, "
                    f"{r.dedup_hits} dup ({r.match_s * 1000:.1f}ms)"
                )
        return "\n".join(lines)


@dataclass
class Result:
    """Outcome of a ``prove`` call."""

    status: Status
    goal_name: str
    context: List[str] = field(default_factory=list)
    stats: ProverStats = field(default_factory=ProverStats)
    #: Per-round admitted instances (printed-form keys), populated only
    #: under ``ProverConfig.record_round_instances`` — the hook the
    #: round-by-round full-re-match tests compare.
    round_instances: Optional[List[List[Tuple]]] = None

    @property
    def proved(self) -> bool:
        return self.status is Status.PROVED

    def __str__(self) -> str:
        head = f"[{self.status.value}] {self.goal_name}"
        if self.proved:
            return head
        ctx = "\n  ".join(self.context[:40])
        return f"{head}\n  counterexample context:\n  {ctx}"


class _Timeout(Exception):
    pass


class _Budget(Exception):
    pass


#: Base clauses (and the axiom counter) per axiom tuple: every checker
#: clausifies the same 196 background axioms, and a daemon builds one
#: checker per job.  Clauses are immutable, so instances share them.
_BASE_MEMO: Dict[tuple, Tuple[Tuple[Clause, ...], int]] = intern.register_memo({})
_BASE_MEMO_MAX = 16


class Prover:
    """A reusable prover instance over a fixed axiom set."""

    def __init__(
        self,
        axioms: Sequence[Union[Formula, Clause]] = (),
        *,
        constructors: Iterable[str] = (),
        config: Optional[ProverConfig] = None,
    ) -> None:
        self.constructors = frozenset(constructors)
        self.config = config or ProverConfig()
        axioms = tuple(axioms)
        base, self._axiom_counter = intern.memoized(
            _BASE_MEMO, _BASE_MEMO_MAX, axioms, lambda: self._clausify_axioms(axioms)
        )
        self._base_clauses: List[Clause] = list(base)

    def _clausify_axioms(self, axioms) -> Tuple[Tuple[Clause, ...], int]:
        """The base clauses of ``axioms`` and the axiom counter after them
        (injectivity clauses in their linear form, see
        :func:`linear_injectivity`)."""
        self._base_clauses = []
        self._axiom_counter = 0
        for ax in axioms:
            if isinstance(ax, tuple):
                origin, formula = ax
                self.add_axiom(formula, origin)
            else:
                self.add_axiom(ax)
        base = tuple(linear_injectivity(c) for c in self._base_clauses)
        return base, self._axiom_counter

    def add_axiom(self, axiom: Union[Formula, Clause], origin: str = "") -> None:
        """Add a background axiom (formula or pre-clausified clause)."""
        if isinstance(axiom, Clause):
            self._base_clauses.append(axiom)
            return
        self._axiom_counter += 1
        name = origin or f"axiom#{self._axiom_counter}"
        self._base_clauses.extend(
            clausify(axiom, origin=name, prefix=f"sk_ax{self._axiom_counter}_")
        )

    # ------------------------------------------------------------------

    def prove(
        self,
        goal: Formula,
        *,
        extra_axioms: Sequence[Union[Formula, Clause]] = (),
        name: str = "goal",
        config: Optional[ProverConfig] = None,
    ) -> Result:
        """Attempt to prove ``goal`` valid modulo the axioms."""
        cfg = config or self.config
        clauses: List[Clause] = list(self._base_clauses)
        for i, ax in enumerate(extra_axioms):
            if isinstance(ax, Clause):
                clauses.append(ax)
            else:
                clauses.extend(clausify(ax, origin=f"extra#{i}", prefix=f"sk_x{i}_"))
        clauses.extend(clausify(Not(goal), origin="negated-goal", prefix="sk_goal_"))
        return _Search(clauses, self.constructors, cfg).run(name)


def linear_injectivity(clause: Clause) -> Clause:
    """The linear form of an injectivity clause; any other clause as is.

    ``x = y \\/ f(c, x) != f(c, y)`` — ``x``, ``y`` distinct variables, the
    second application the first with ``x`` replaced by ``y`` — needs a
    multi-pattern trigger and so admits one instance per *pair* of
    ``f``-applications.  ``inv(c, f(c, x)) = x``, with ``inv`` the fresh
    :func:`~repro.prover.kernels.flat.inverse_symbol` of ``f`` at ``x``'s
    position, implies it, is triggered by ``f(c, x)`` alone and so admits
    one instance per application.  Congruence on ``inv`` derives ``x = y``
    from ``f(c, x) = f(c, y)``; the kernel's contrapositive congruence
    derives ``f(c, x) != f(c, y)`` from ``x != y`` (docs/THEOREMS.md, W1).
    The clause keeps its origin."""
    if len(clause.literals) != 2:
        return clause
    eq, neq = clause.literals
    if not eq.positive:
        eq, neq = neq, eq
    if (
        not eq.positive
        or neq.positive
        or not isinstance(eq.atom, Eq)
        or not isinstance(neq.atom, Eq)
    ):
        return clause
    x, y = eq.atom.lhs, eq.atom.rhs
    if not isinstance(x, LVar) or not isinstance(y, LVar) or x == y:
        return clause
    lhs, rhs = neq.atom.lhs, neq.atom.rhs
    for u, v in ((x, y), (y, x)):
        for image, other in ((lhs, rhs), (rhs, lhs)):
            if not isinstance(image, App) or v.name in free_vars(image):
                continue
            args = image.args
            if u not in args:
                continue
            i = args.index(u)
            ctx = args[:i] + args[i + 1:]
            if any(u.name in free_vars(c) for c in ctx):
                continue
            if other != App(image.fn, args[:i] + (v,) + args[i + 1:]):
                continue
            inverse = App(inverse_symbol(image.fn, i), ctx + (image,))
            return Clause(
                (Literal(True, Eq(inverse, u)),), ((image,),), clause.origin
            )
    return clause


#: Selected triggers per quantified axiom clause, keyed by object id with
#: the clause kept alive in the value (see ``_Search._classify``).
_TRIGGER_CACHE: Dict[int, Tuple[Clause, Tuple]] = {}


class _Search:
    """One refutation search (fresh E-graph, fresh instance cache)."""

    def __init__(self, clauses: Sequence[Clause], constructors: frozenset, cfg: ProverConfig) -> None:
        self.cfg = cfg
        self.egraph = FlatEGraph(constructors)
        self._true_node = self.egraph.term_to_node[TRUE]
        self.ground: List[Clause] = []
        #: ``(clause, triggers, programs)`` per quantified clause; the
        #: programs list holds the lazily compiled triggers.
        self.quantified: List[
            Tuple[Clause, Tuple[Tuple[Term, ...], ...], List]
        ] = []
        #: Per quantified clause: instances found by E-matching but held back
        #: by the relevance guard, keyed like ``seen_instances``.  Global
        #: (never popped): a ground instance of a universally quantified
        #: axiom is valid on every branch, and keeping the carry-over global
        #: is what lets the incremental matcher skip re-deriving it.
        self.deferred: List[Dict[Tuple, Tuple[Tuple, Tuple, Clause]]] = []
        self.seen_instances: Set[Tuple] = set()
        #: Structural atom interning for clause keys: atom -> small int.
        self._atom_ids: Dict[object, int] = {}
        #: Clause -> its ``_clause_key`` (the key depends on this search's
        #: ``_atom_ids`` numbering, so the memo is per search; instances are
        #: hash-consed and re-keyed every round they are re-derived).
        self._ckey_memo: Dict[Clause, Tuple] = {}
        #: Per quantified clause: representative-term tuple -> (clause key,
        #: render key, instance).  E-matching re-derives the same binding
        #: constantly (~35% of bindings are downstream dedup hits) and the
        #: whole substitute/key pipeline is pure in the representative
        #: terms, so duplicates collapse to one probe on interned-term
        #: identity before any of it runs.
        self._inst_memo: List[Dict[Tuple, Tuple]] = []
        #: Per (quantified clause, trigger): (covers, var_order) — whether
        #: the trigger binds every clause variable, and its name-sorted
        #: variable order.  Both are trigger constants (every complete
        #: match of one trigger binds exactly its variable set), computed
        #: once from the first binding instead of per binding.
        self._trig_info: Dict[Tuple[int, int], Tuple[bool, List[str]]] = {}
        #: Per-literal evaluation cache: id(lit) -> [lit, lhs_term, rhs_term,
        #: is_kind, lhs_node, rhs_node, positive].  The stored literal
        #: reference both validates the id (ids of dead objects get recycled)
        #: and keeps the literal alive so it cannot be.  Node ids are
        #: revalidated against the node table, since pops recycle them.
        self._lit_info: Dict[int, list] = {}
        #: Per-ground-clause list of those records, built on first watched
        #: evaluation — the hot scan walks records directly instead of
        #: re-resolving ``id(lit)`` per literal per evaluation.
        self._clause_lits: List[Optional[list]] = []
        self.stats = ProverStats()
        self.deadline = 0.0
        self.assertion_log: List[str] = []
        self.saturated_context: List[str] = []
        # Satisfied-clause marks, scoped to decision levels: a clause found
        # satisfied is skipped by later scans until the level that satisfied
        # it is popped.
        self.sat: List[bool] = []
        self.sat_scopes: List[List[int]] = [[]]
        #: E-graph generation up to which every trigger has been matched
        #: against every node (advanced only when a round completes).
        self.match_stamp = 0
        self.round_instances: Optional[List[List[Tuple]]] = (
            [] if cfg.record_round_instances else None
        )
        # Watched-clause propagation state.  ``evals`` caches each open
        # clause's last evaluation; ``dirty`` holds the clauses whose cache
        # is stale; ``watchers`` maps a class root to the clauses watching
        # it.  ``eval_scopes`` holds one undo journal per
        # decision level: every in-level mutation of ``dirty``/``evals``/
        # ``watchers`` is logged, and ``_pop_level`` plays the journal
        # backwards.  Because the E-graph pop restores the exact pre-push
        # state, the restored caches are valid as-is — clauses untouched by
        # the sibling branch are never re-evaluated.  Journal ops:
        # ``(0, c)`` dirty.add, ``(1, c)`` dirty.discard,
        # ``(2, c, prev)`` evals[c] overwrite, ``(3, root, c)`` watcher
        # registration, ``(4, root, bucket)`` watcher bucket drain.
        self.dirty: Set[int] = set()
        self.evals: List[Optional[Tuple[int, Literal, int]]] = []
        self.eval_scopes: List[List[Tuple]] = [[]]
        self.watchers: Dict[int, Set[int]] = {}
        self.event_cursor = 0
        self.event_marks: List[int] = []
        # Lazy split-candidate heap: (-priority, width, index) entries pushed
        # whenever a clause's cached evaluation changes; stale or satisfied
        # tops are discarded at selection time.  ``split_pushed`` remembers
        # the latest entry pushed per clause so re-evaluations that land on
        # the same score do not flood the heap.
        self.split_heap: List[Tuple[int, int, int]] = []
        self.split_pushed: List[Optional[Tuple[int, int]]] = []
        for clause in clauses:
            self._classify(clause)

    def _classify(self, clause: Clause) -> None:
        if clause.is_ground():
            key = self._clause_key(clause)
            if key not in self.seen_instances:
                self.seen_instances.add(key)
                self._append_ground(clause)
            return
        # Trigger selection is a pure function of the clause, and the
        # clausifier memoizes its output, so the same ~100 axiom clause
        # objects reach every search of a theory: cache by identity (the
        # stored clause both validates the recycled id and pins it alive).
        cached = _TRIGGER_CACHE.get(id(clause))
        if cached is not None and cached[0] is clause:
            triggers = cached[1]
        else:
            triggers = tuple(
                tuple(App(p.name, p.args) if isinstance(p, Pred) else p for p in trig)
                for trig in clause.triggers
            )
            if not triggers:
                atom_terms: List[Term] = []
                for lit in clause.literals:
                    if isinstance(lit.atom, Eq):
                        atom_terms.extend((lit.atom.lhs, lit.atom.rhs))
                    else:
                        atom_terms.append(App(lit.atom.name, lit.atom.args))
                triggers = select_triggers(atom_terms, sorted(clause.vars()))
            if len(_TRIGGER_CACHE) >= 65536:
                _TRIGGER_CACHE.clear()
            _TRIGGER_CACHE[id(clause)] = (clause, triggers)
        # Trigger programs, compiled lazily on first match (an obligation
        # refuted propositionally never pays for them); ``None`` slots are
        # filled in ``_instantiate``.
        programs: List = [None] * len(triggers)
        self.quantified.append((clause, triggers, programs))
        self.deferred.append({})
        self._inst_memo.append({})

    def _append_ground(self, clause: Clause) -> int:
        index = len(self.ground)
        self.ground.append(clause)
        self.sat.append(False)
        self.evals.append(None)
        self.split_pushed.append(None)
        self._clause_lits.append(None)
        self.dirty.add(index)
        return index

    def _clause_key(self, clause: Clause) -> Tuple:
        """Order-insensitive structural identity of a ground clause.

        Atoms are mapped to small integers once, so deduplicating an
        instance against thousands of known ones sorts machine ints instead
        of stringifying every atom.  With the globally hash-consed atoms of
        :mod:`repro.logic`, the dict probe below is an O(1) identity
        lookup — the atom's hash is a cached int and equality short-circuits
        on pointer comparison."""
        memo = self._ckey_memo
        key = memo.get(clause)
        if key is not None:
            return key
        ids = self._atom_ids
        out = []
        for lit in clause.literals:
            aid = ids.get(lit.atom)
            if aid is None:
                aid = len(ids)
                ids[lit.atom] = aid
            out.append((lit.positive, aid))
        out.sort()
        key = tuple(out)
        memo[clause] = key
        return key

    # ------------------------------------------------------------------

    def run(self, name: str) -> Result:
        self.deadline = time.monotonic() + self.cfg.timeout_s
        start = time.monotonic()
        mark = intern.STATS.snapshot()
        # The search allocates heavily (trail entries, watch lists, binding
        # tuples) but almost nothing becomes cyclic garbage mid-proof, so
        # generational collections are pure overhead (~10% of search time).
        # Collection is deferred until the proof returns; timeouts bound how
        # long that can be.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        self.egraph.push()
        try:
            refuted = self._dpll(0)
            status = Status.PROVED if refuted else Status.UNKNOWN
        except (_Timeout, _Budget, RecursionError):
            status = Status.UNKNOWN
            self.saturated_context = ["<resource limit reached>"] + list(self.assertion_log)
        finally:
            self.egraph.pop()
            if gc_was_enabled:
                gc.enable()
        self.stats.elapsed_s = time.monotonic() - start
        delta = intern.STATS.delta(mark)
        st = self.stats
        st.kernel = kernel_identity(ProverConfig.kernel)
        st.struct_visits = self.egraph.struct_visits
        st.intern_table = intern.table_size()
        st.intern_hits += delta["term_hits"] + delta["formula_hits"]
        st.intern_misses += delta["term_misses"] + delta["formula_misses"]
        st.subst_hits += delta["subst_hits"] + delta["clause_subst_hits"]
        st.subst_misses += delta["subst_misses"] + delta["clause_subst_misses"]
        st.free_vars_hits += delta["free_vars_hits"]
        st.pipeline_hits += (
            delta["nnf_hits"] + delta["skolem_hits"] + delta["clausify_hits"]
        )
        st.pipeline_misses += (
            delta["nnf_misses"] + delta["skolem_misses"] + delta["clausify_misses"]
        )
        context = self.saturated_context if status is Status.UNKNOWN else []
        return Result(status, name, context, self.stats, self.round_instances)

    # ------------------------------------------------------------------

    def _lit_value(self, lit: Literal) -> Optional[bool]:
        """Evaluate a ground literal against the E-graph (None: undetermined).

        The literal is decided by the class relation of two E-graph nodes
        (``lhs``/``rhs`` for equalities, the predicate term and ``@true``
        for predicates).  Re-evaluations skip the deep-hashing ``add_term``
        path entirely when the cached node id still holds the literal's own
        term object; a hit means the term is interned, so ``add_term`` would
        be a no-op and skipping it cannot change behavior."""
        self.stats.lit_evals += 1
        eg = self.egraph
        node_terms = eg.node_terms
        n = len(node_terms)
        info = self._lit_record(lit)
        ta = info[1]
        a = info[4]
        if not (0 <= a < n and node_terms[a] is ta):
            a = eg.add_term(ta)
            info[1] = node_terms[a]
            info[4] = a
            n = len(node_terms)
        tb = info[2]
        if tb is None:
            b = self._true_node
        else:
            b = info[5]
            if not (0 <= b < n and node_terms[b] is tb):
                b = eg.add_term(tb)
                info[2] = node_terms[b]
                info[5] = b
        rel = eg.relation_ids(a, b)
        if rel < 0:
            return None
        value = rel == 1
        return value if lit.positive else not value

    def _lit_record(self, lit: Literal) -> list:
        """The shared evaluation record for a literal (see ``_lit_info``)."""
        info = self._lit_info.get(id(lit))
        if info is None or info[0] is not lit:
            atom = lit.atom
            if isinstance(atom, Eq):
                ta, tb = atom.lhs, atom.rhs
            else:
                ta, tb = App(atom.name, atom.args), None
            info = [lit, ta, tb, _is_kind_literal(lit), -1, -1, lit.positive]
            self._lit_info[id(lit)] = info
        return info

    def _assert_literal(self, lit: Literal, why: str) -> bool:
        """Assert a literal; False means the branch is contradictory."""
        atom = lit.atom
        if isinstance(atom, Eq):
            ok = (
                self.egraph.assert_eq(atom.lhs, atom.rhs)
                if lit.positive
                else self.egraph.assert_diseq(atom.lhs, atom.rhs)
            )
        else:
            term = App(atom.name, atom.args)
            ok = self.egraph.assert_eq(term, TRUE if lit.positive else FALSE)
        if ok:
            self.assertion_log.append(f"{lit}  [{why}]")
        return ok

    def _mark_sat(self, index: int) -> None:
        self.sat[index] = True
        self.sat_scopes[-1].append(index)

    def _push_level(self) -> None:
        self.egraph.push()
        self.sat_scopes.append([])
        self.eval_scopes.append([])
        self.event_marks.append(len(self.egraph.events))

    def _pop_level(self) -> None:
        self.egraph.pop()
        unsatted = self.sat_scopes.pop()
        for index in unsatted:
            self.sat[index] = False
        # Play the level's journal backwards: the E-graph pop restored
        # the exact pre-push state, so the pre-push evaluation caches,
        # watcher registrations, and dirty set are restored with it —
        # the sibling branch re-evaluates only the clauses its own
        # merges actually wake.  Events logged inside the level are
        # dropped; their wakes are part of the journal.
        dirty = self.dirty
        evals = self.evals
        watchers = self.watchers
        split_pushed = self.split_pushed
        split_heap = self.split_heap
        for op in reversed(self.eval_scopes.pop()):
            tag = op[0]
            if tag == 0:
                dirty.discard(op[1])
            elif tag == 1:
                dirty.add(op[1])
            elif tag == 2:
                index = op[1]
                prev = op[2]
                evals[index] = prev
                if prev is not None:
                    # Heap invariant: a clause's current cached
                    # evaluation always has a live heap entry.
                    entry = (-prev[2], prev[0])
                    if split_pushed[index] != entry:
                        heapq.heappush(
                            split_heap, (-prev[2], prev[0], index)
                        )
                        split_pushed[index] = entry
            elif tag == 3:
                watchers[op[1]].discard(op[2])
            else:
                watchers[op[1]] = op[2]
        # A clause whose sat mark was just cleared kept its pre-sat
        # cache, but the split selection may have discarded its heap
        # entry while it was satisfied: re-establish the invariant.
        for index in unsatted:
            ev = evals[index]
            if ev is not None:
                entry = (-ev[2], ev[0])
                if split_pushed[index] != entry:
                    heapq.heappush(split_heap, (-ev[2], ev[0], index))
                    split_pushed[index] = entry
        mark = self.event_marks.pop()
        del self.egraph.events[mark:]
        if self.event_cursor > mark:
            self.event_cursor = mark

    def _dpll(self, depth: int) -> bool:
        """True when the current branch is refuted."""
        if time.monotonic() > self.deadline:
            raise _Timeout()
        rounds = 0
        while True:
            outcome, split = self._scan_watched()
            if outcome == "conflict":
                return True
            if outcome == "progress":
                continue
            if split is not None and split[2] >= 0:
                return self._decide(split[0], split[1], depth)
            # All ground clauses satisfied; try instantiating quantifiers.
            rounds += 1
            self.stats.rounds += 1
            if rounds > self.cfg.max_rounds or not self._instantiate():
                self.saturated_context = list(self.assertion_log)
                return False

    # -- propagation (watched class roots) --------------------------------------

    def _drain_events(self, pos: int, heap: Optional[List[int]]) -> None:
        """Wake the clauses watching any class root touched since the last
        drain.  Wakes at an index still ahead of the scan position join the
        current pass (an in-order full rescan would reach them with the
        updated state); wakes at or behind it stay dirty for the next pass."""
        eg = self.egraph
        events = eg.events
        cursor = self.event_cursor
        watchers = self.watchers
        dirty = self.dirty
        sat = self.sat
        stats = self.stats
        journal = self.eval_scopes[-1].append
        while cursor < len(events):
            root = events[cursor]
            cursor += 1
            woken = watchers.pop(root, None)
            if not woken:
                continue
            journal((4, root, woken))
            for c in woken:
                if sat[c] or c in dirty:
                    continue
                stats.wakeups += 1
                dirty.add(c)
                journal((0, c))
                if heap is not None and c > pos:
                    heapq.heappush(heap, c)
        self.event_cursor = cursor

    def _scan_watched(self) -> Tuple[str, Optional[Tuple[Literal, Clause, int]]]:
        """One propagation pass: detect conflicts, assert units, and pick
        the best split candidate.

        Only clauses in the dirty set are (re-)evaluated, in ascending index
        order — the order a naive full rescan visits them — so units are
        asserted in the same sequence and the split choice is the same
        (``tests/test_prover_incremental.py`` checks this against a naive
        re-evaluation after every stable outcome).
        The stable-case split selection reads the cached evaluations of all
        open clauses without touching the E-graph."""
        stats = self.stats
        stats.scan_passes += 1
        eg = self.egraph
        events = eg.events
        dirty = self.dirty
        sat = self.sat
        evals = self.evals
        split_pushed = self.split_pushed
        split_heap = self.split_heap
        journal = self.eval_scopes[-1].append
        clause_lits = self._clause_lits
        add_term = eg.add_term
        relation_ids = eg.relation_ids
        parent = eg.parent
        inv_uses = eg.inv_uses
        true_node = self._true_node
        progress = False
        if len(events) != self.event_cursor:
            self._drain_events(-1, None)  # decisions/instantiation since last scan
        heap = sorted(dirty)
        pos = -1
        evaluated = 0
        while heap:
            index = heapq.heappop(heap)
            if index not in dirty:
                continue
            dirty.discard(index)
            journal((1, index))
            if sat[index]:
                continue
            pos = index
            evaluated += 1
            if (evaluated & 63) == 0 and time.monotonic() > self.deadline:
                dirty.add(index)
                journal((0, index))
                raise _Timeout()
            clause = self.ground[index]
            stats.clause_evals += 1
            recs = clause_lits[index]
            if recs is None:
                recs = clause_lits[index] = [
                    self._lit_record(lit) for lit in clause.literals
                ]
            width = 0
            candidate: Optional[Literal] = None
            satisfied = False
            has_undetermined_kind = False
            watch_nodes: List[int] = []
            # The loop below is ``_lit_value`` unrolled over the clause's
            # shared records: same interning, same counter increments, same
            # semantics — minus a method call and an id() probe per literal.
            try:
                node_terms = eg.node_terms
                n_nodes = len(node_terms)
                for rec in recs:
                    stats.lit_evals += 1
                    ta = rec[1]
                    a = rec[4]
                    if not (0 <= a < n_nodes and node_terms[a] is ta):
                        a = add_term(ta)
                        rec[1] = node_terms[a]
                        rec[4] = a
                        n_nodes = len(node_terms)
                    tb = rec[2]
                    if tb is None:
                        b = true_node
                    else:
                        b = rec[5]
                        if not (0 <= b < n_nodes and node_terms[b] is tb):
                            b = add_term(tb)
                            rec[2] = node_terms[b]
                            rec[5] = b
                            n_nodes = len(node_terms)
                    rel = relation_ids(a, b)
                    if rel < 0:
                        width += 1
                        if rec[3]:
                            has_undetermined_kind = True
                        if candidate is None:
                            candidate = rec[0]
                        watch_nodes.append(a)
                        watch_nodes.append(b)
                        # ``relation_ids`` left ``a`` and ``b`` one hop from
                        # their roots.  Contrapositive congruence reads the
                        # inverse applications over both classes: watch them.
                        if inv_uses[parent[a]] and inv_uses[parent[b]]:
                            eg.inverse_watch_nodes(
                                parent[a], parent[b], watch_nodes
                            )
                    elif (rel == 1) == rec[6]:
                        satisfied = True
                        break
            except EGraphConflict:
                dirty.add(index)
                journal((0, index))
                return "conflict", None
            if satisfied:
                self._mark_sat(index)
                if len(events) != self.event_cursor:
                    self._drain_events(pos, heap)
                continue
            if width == 0:
                dirty.add(index)
                journal((0, index))
                return "conflict", None
            if width == 1 and candidate is not None:
                stats.propagations += 1
                if not self._assert_literal(candidate, f"unit from {clause.origin or clause}"):
                    dirty.add(index)
                    journal((0, index))
                    return "conflict", None
                self._mark_sat(index)
                progress = True
                if len(events) != self.event_cursor:
                    self._drain_events(pos, heap)
                continue
            # Open clause: cache the evaluation and watch every class a
            # still-undetermined literal depends on.  Watching all of them
            # (not just two) keeps the cache exact, which the split
            # selection below relies on.
            if "seed" in clause.origin:
                clause_priority = 2
            elif "nosplit" in clause.origin:
                clause_priority = -1
            elif has_undetermined_kind:
                clause_priority = -1
            else:
                clause_priority = default_split_priority(candidate, clause)
            journal((2, index, evals[index]))
            evals[index] = (width, candidate, clause_priority)
            entry = (-clause_priority, width)
            if split_pushed[index] != entry:
                heapq.heappush(split_heap, (-clause_priority, width, index))
                split_pushed[index] = entry
            watchers = self.watchers
            moved = 0
            for node in watch_nodes:
                root = parent[node]
                if root != parent[root]:
                    root = eg.find(node)
                bucket = watchers.get(root)
                if bucket is None:
                    watchers[root] = bucket = set()
                if index not in bucket:
                    bucket.add(index)
                    journal((3, root, index))
                    moved += 1
            stats.watch_moves += moved
            # Interning this clause's terms may itself have merged classes.
            if len(events) != self.event_cursor:
                self._drain_events(pos, heap)
        if progress:
            return "progress", None
        # Stable: the split is the maximal (priority, -width) with the
        # lowest index — exactly what a naive in-order strict
        # improvement sweep selects.  Stale and satisfied heap tops are
        # discarded; the entry pushed for a clause's *current* evaluation is
        # always still in the heap, so the surviving top is the true best.
        while split_heap:
            neg_priority, width, index = split_heap[0]
            if not sat[index]:
                ev = evals[index]
                if ev is not None and ev[0] == width and ev[2] == -neg_priority:
                    return "stable", (ev[1], self.ground[index], -neg_priority)
            heapq.heappop(split_heap)
            if split_pushed[index] == (neg_priority, width):
                split_pushed[index] = None
        return "stable", None

    # -- case splitting ---------------------------------------------------------

    def _decide(self, lit: Literal, clause: Clause, depth: int) -> bool:
        self.stats.decisions += 1
        if self.stats.decisions > self.cfg.max_decisions:
            raise _Budget()
        # Phase selection: explore the generic branch first.  In a seed
        # clause the literal is a deliberate case pick, so take it as-is;
        # for other equality atoms, the disequal branch usually carries the
        # real proof (the equal branch is the degenerate corner), and
        # crucially it creates no new terms, so the instances the proof
        # needs get derived before DPLL wanders into term-building branches.
        if "seed" in clause.origin or not isinstance(lit.atom, Eq):
            first = lit
        else:
            first = Literal(False, lit.atom) if lit.positive else lit
        log_mark = len(self.assertion_log)
        self._push_level()
        if self._assert_literal(first, f"decision@{depth}"):
            refuted = self._dpll(depth + 1)
        else:
            refuted = True
        self._pop_level()
        del self.assertion_log[log_mark:]
        if not refuted:
            return False
        self._push_level()
        if self._assert_literal(first.negate(), f"decision@{depth}"):
            refuted = self._dpll(depth + 1)
        else:
            refuted = True
        self._pop_level()
        del self.assertion_log[log_mark:]
        return refuted

    # -- quantifier instantiation ----------------------------------------------

    def _instantiate(self) -> bool:
        """One E-matching round; True if any new ground clause appeared.

        Only structure stamped since the last *completed* round is matched
        (Simplify's mod-times); the per-clause carry-over of guard-deferred
        instances makes the union of "newly matched" and "carried" equal to
        a full re-enumeration minus what is already known.  Candidates are
        admitted in binding-signature order, so the ground clause list — and
        hence the rest of the search — does not depend on the enumeration
        order (``tests/test_prover_incremental.py`` re-runs searches with a
        full re-match every round and compares the admissions)."""
        stats = self.stats
        cfg = self.cfg
        eg = self.egraph
        representative = eg.representative
        since = self.match_stamp
        round_gen = eg.bump_generation()
        round_no = stats.rounds
        t0 = time.perf_counter()
        bindings_n = 0
        dedup_n = 0
        fresh_n = 0
        deferred_n = 0
        added = False
        recorded: List[Tuple] = []
        for pair_idx, (clause, triggers, programs) in enumerate(self.quantified):
            if time.monotonic() > self.deadline:
                raise _Timeout()
            clause_vars = set(clause.vars())
            carried = self.deferred[pair_idx]
            memo = self._inst_memo[pair_idx]
            fresh: Dict[Tuple, Tuple[Tuple, Tuple, Clause]] = {}
            for ti, trigger in enumerate(triggers):
                try:
                    prog = programs[ti]
                    if prog is None:
                        prog = programs[ti] = compiled_trigger(trigger)
                    bindings = flat_ematch(
                        eg, prog, since=since, deadline=self.deadline
                    )
                except MatchTimeout:
                    raise _Timeout()
                except EGraphConflict:
                    return True  # conflict will be picked up by propagation
                bindings_n += len(bindings)
                if not bindings:
                    continue
                tinfo = self._trig_info.get((pair_idx, ti))
                if tinfo is None:
                    names = sorted(bindings[0])
                    tinfo = (not (set(names) < clause_vars), names)
                    self._trig_info[(pair_idx, ti)] = tinfo
                if not tinfo[0]:
                    continue  # trigger does not bind everything
                var_order = tinfo[1]
                for bi, binding in enumerate(bindings):
                    if (bi & 255) == 0 and time.monotonic() > self.deadline:
                        raise _Timeout()
                    # Binding values are class roots as of the enumeration,
                    # and nothing between the match and this loop mutates
                    # the E-graph (substitution and keying are pure term
                    # work), so they need no re-canonicalization here.
                    # The admission order must not depend on the binding
                    # enumeration order (restricted passes and a full
                    # re-match enumerate differently), so each candidate
                    # carries its binding signature — the bound class
                    # roots.
                    sig = tuple(binding[v] for v in var_order)
                    reps = tuple(representative(node) for node in sig)
                    entry = memo.get(reps)
                    if entry is None:
                        instance = clause.substitute(dict(zip(var_order, reps)))
                        entry = (
                            self._clause_key(instance),
                            _render_key(instance),
                            instance,
                        )
                        memo[reps] = entry
                    key = entry[0]
                    if key in self.seen_instances or key in carried:
                        dedup_n += 1
                        continue
                    prev = fresh.get(key)
                    if prev is not None:
                        dedup_n += 1
                        if sig < prev[0]:
                            fresh[key] = (sig, entry[1], entry[2])
                        continue
                    fresh[key] = (sig, entry[1], entry[2])
            if not fresh and not carried:
                continue
            # Admit oldest structure first: sort by binding signature (class
            # roots), tie-broken by the printed form.  This tracks the
            # full enumeration's old-nodes-first bias while being
            # independent of the enumeration order.
            candidates = list(carried.items())
            candidates.extend(fresh.items())
            candidates.sort(key=lambda kv: (kv[1][0], kv[1][1]))
            next_carried: Dict[Tuple, Tuple[Tuple, Tuple, Clause]] = {}
            for ci, (key, (sig, ckey, inst)) in enumerate(candidates):
                if (ci & 63) == 0 and time.monotonic() > self.deadline:
                    raise _Timeout()
                if len(self.seen_instances) >= cfg.max_instances:
                    # Budget reached mid-round: bail without advancing the
                    # match stamp, so nothing unprocessed is lost.
                    return added
                # Relevance guard: a conditional-semantics instance whose
                # constructor-kind guard is still undetermined would only
                # intern phantom structure (nested projections of opaque
                # terms).  Defer it — once propagation fixes the kind, a
                # later round will admit it.  Evaluating just the kind
                # literal interns only the small kind atom itself.
                deferred_inst = False
                for ilit in inst.literals:
                    if not ilit.positive and _is_kind_literal(ilit):
                        try:
                            if self._lit_value(ilit) is None:
                                deferred_inst = True
                                break
                        except EGraphConflict:
                            return True
                if deferred_inst:
                    next_carried[key] = (sig, ckey, inst)
                    continue
                self.seen_instances.add(key)
                stats.instances += 1
                self._append_ground(inst)
                added = True
                fresh_n += 1
                if self.round_instances is not None:
                    recorded.append(ckey)
            self.deferred[pair_idx] = next_carried
            deferred_n += len(next_carried)
        elapsed = time.perf_counter() - t0
        stats.match_s += elapsed
        stats.bindings += bindings_n
        stats.dedup_hits += dedup_n
        # The round completed: everything stamped before ``round_gen`` has
        # now been matched.  (Aborted rounds — conflict, budget, timeout —
        # leave the stamp alone and simply re-match.)
        self.match_stamp = round_gen
        if self.round_instances is not None:
            self.round_instances.append(sorted(recorded))
        if len(stats.round_log) < 1000:
            stats.round_log.append(
                RoundStats(round_no, elapsed, bindings_n, fresh_n, deferred_n, dedup_n)
            )
        return added


def _render_key(clause: Clause) -> Tuple:
    """The printed form of an instance, in its natural literal order.

    Used as a deterministic tie-break when admitting instances (two bindings
    can yield the same clause up to literal order — e.g. a symmetric
    multi-pattern — and carried-over signatures can collide with fresh ones
    after merges) and as the label for round-by-round instance recording.

    The printed form is load-bearing for determinism (colliding instances
    must be admitted in the same order however they were enumerated, and
    the recorded logs are compared verbatim), so it cannot become an id
    tuple;
    but atoms are interned, so each ``str`` is computed once per atom
    object ever and answered from the node's cached render thereafter —
    every other dedup/ordering path runs on interned atom ids
    (``_clause_key``)."""
    return tuple((lit.positive, str(lit.atom)) for lit in clause.literals)


def select_triggers(literal_terms: Sequence[Term], variables: Sequence[str]) -> Tuple[Tuple[Term, ...], ...]:
    """Choose triggers for a quantified clause with no user-provided ones.

    Strategy (mirroring Simplify's automatic trigger selection):

    1. prefer a single application term that contains every bound variable
       and is not itself a variable (smallest such term wins);
    2. otherwise, build one multi-pattern greedily from application terms,
       adding the term that covers the most uncovered variables.
    """
    needed = set(variables)
    candidates: List[Term] = []
    for t in literal_terms:
        for sub in _app_subterms(t):
            if free_vars(sub) & needed:
                candidates.append(sub)
    # Single-term triggers first.
    full = [c for c in candidates if free_vars(c) >= needed]
    if full:
        best = min(full, key=_trigger_order)
        return ((best,),)
    # Greedy multi-pattern.
    covered: set = set()
    multi: List[Term] = []
    while covered < needed:
        best = None
        best_gain = 0
        for c in candidates:
            gain = len((free_vars(c) & needed) - covered)
            if gain > best_gain or (
                gain == best_gain and gain > 0 and best is not None and _trigger_order(c) < _trigger_order(best)
            ):
                best, best_gain = c, gain
        if best is None or best_gain == 0:
            return ()  # cannot cover all variables; clause is uninstantiable
        multi.append(best)
        covered |= free_vars(best) & needed
    return (tuple(multi),)


def _trigger_order(t: Term) -> Tuple[int, int, str]:
    # All three components are cached on the interned node (size, free-var
    # set, printed form) — trigger selection is comparison-only.
    return (term_size(t), len(free_vars(t)), term_str(t))


def _app_subterms(t: Term) -> Iterator[Term]:
    if isinstance(t, App):
        if t.args:
            yield t
        for a in t.args:
            yield from _app_subterms(a)
