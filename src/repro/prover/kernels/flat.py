"""The e-graph kernel: congruence closure with theories and backtracking,
and E-matching, over struct-of-arrays integer storage (docs/KERNELS.md).

The E-graph is the heart of the prover.  It maintains equivalence classes
of ground terms under asserted equalities, closed under congruence, and
detects conflicts with:

* asserted **disequalities**;
* **free constructors**: two terms headed by distinct constructor symbols
  are never equal, and equal constructor applications have equal
  arguments (injectivity, applied eagerly);
* **numerals**: distinct integer literals are distinct, and arithmetic
  function symbols applied to known numerals fold to their value
  (:mod:`repro.prover.arith`).

Every e-node is a plain integer id into parallel flat lists:

* ``parent`` / ``rank`` — the union-find forest, with iterative full path
  compression whose pointer rewrites are trailed so ``pop`` restores the
  forest exactly;
* ``fn_id`` / ``arg_start`` / ``arg_len`` / ``arena`` — the head symbol
  (interned to a small int) and the argument ids, flattened into one
  shared arena and addressed by span;
* ``next_sib`` — equivalence classes as circular linked lists (O(1) merge,
  O(1) undo by re-swapping two ints);
* ``int_has`` / ``int_val`` / ``ctor`` — per-root theory annotations
  (numeral value, witnessing constructor node);
* ``node_mod`` — Simplify-style generation stamps ("mod-times") for
  incremental E-matching: a merge touches, transitively, every application
  node whose arguments' classes can now match further, so matching
  restricted to nodes stamped since the previous round finds exactly the
  bindings that did not exist before;
* ``uses`` / ``diseq`` — per-id use-lists and disequality adjacency;
* a flat **integer trail**: undo records are operand ints pushed onto one
  list followed by an opcode, popped in reverse on ``pop``.  Only records
  that must restore an object (a class representative term, a signature
  key) park it in a side list.

An **event log** of class roots whose equivalence class changed (merged,
or gained a disequality) feeds the prover's watched-clause propagation
(docs/PROVER.md).

The module is written in the mypyc/Cython-compatible subset (plain
classes, no generators or closures in hot paths) so ``pip install
repro[compiled]`` can compile it to a C extension; the search is
byte-identical either way (docs/KERNELS.md).

E-matching compiles each trigger into a small instruction program
(:class:`FlatProgram`, built by :func:`compile_trigger`) executed by a
recursive abstract machine (:func:`flat_ematch`) — one TOP instruction per
pattern term iterating candidate nodes by head-symbol row, VAR/INT/APP
instructions walking argument spans and member cycles.  Bindings map
variables to class *roots* and are deduplicated by the canonical
(variable, root) key.  The kernel is checked against a naive
union-find/declarative-matcher oracle in ``tests/test_kernels.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.logic.terms import App, IntConst, LVar, Term, term_size, term_str
from repro.prover.arith import ARITH_FNS, eval_arith

TRUE = App("@true")
FALSE = App("@false")


class EGraphConflict(Exception):
    """Raised internally when an assertion contradicts the current state."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class MatchTimeout(Exception):
    """Raised when a match call exceeds the caller-supplied deadline."""


#: How many top-level candidate nodes to examine between deadline checks.
_DEADLINE_STRIDE = 64

# Trail opcodes.  Undo records are pushed operands-first, opcode last, onto
# one flat int list; ``pop`` reads the opcode and consumes the operands in
# reverse.  OBJ-suffixed comments mark records that also park an object in
# ``trail_objs`` (referenced by index).
_OP_NODE = 1  # [node_id]                     undo node creation
_OP_SIG = 2  # [objs_idx]                     undo sig_table insert (OBJ: key)
_OP_USE = 3  # [root]                         undo one use-list append
_OP_UNION = 4  # [ry, rx, rank, ih, iv, ct]   undo a union
_OP_BEST = 5  # [rx, objs_idx]                undo best-term update (OBJ: term)
_OP_DISEQ = 6  # [ra, rb]                     undo a new disequality
_OP_DISEQ_MOVED = 7  # [ry, other, rx, was]   undo a migrated disequality
_OP_USE_MERGE = 8  # [rx, old_len]            undo a use-list extend
_OP_CTOR = 9  # [root, old]                   undo a class-constructor set
_OP_MOD = 10  # [node, old]                   undo a mod-stamp raise
_OP_PARENT = 11  # [x, old]                   undo one path-compression write


class FlatEGraph:
    """Struct-of-arrays congruence closure with theories and a trail."""

    def __init__(self, constructors=None) -> None:
        self.constructors = frozenset(constructors or ())
        # -- per-function-symbol tables (append-only, never trailed) ------
        self.fn_ids: Dict[str, int] = {}
        self.fn_names: List[str] = []
        self.fn_rows: List[List[int]] = []  # fn id -> node ids, oldest first
        self.fn_is_ctor: List[bool] = []
        self.fn_is_arith: List[bool] = []
        #: Per-fn high-water mod stamp: ≥ the stamp of every current node in
        #: the row.  Pops leave it conservatively high (a stale watermark
        #: only costs a skipped skip), so the restricted E-matching pass can
        #: rule out whole rows without scanning them.
        self.fn_maxmod: List[int] = []
        # -- per-node parallel arrays -------------------------------------
        self.parent: List[int] = []
        self.rank: List[int] = []
        self.fn_id: List[int] = []  # -1 for numerals
        self.arg_start: List[int] = []
        self.arg_len: List[int] = []
        self.arena: List[int] = []  # all argument ids, flattened
        self.next_sib: List[int] = []  # circular member list
        self.int_has: List[int] = []  # root-level: class has a numeral value
        self.int_val: List[int] = []
        self.ctor: List[int] = []  # root-level: witnessing ctor node, -1
        self.node_mod: List[int] = []
        self.node_terms: List[Term] = []
        self.best_term: List[Term] = []  # root-level small representative
        self.uses: List[List[int]] = []
        self.diseq: List[Set[int]] = []
        # -- interning / congruence ---------------------------------------
        self.term_to_node: Dict[Term, int] = {}
        self.sig_table: Dict[Tuple[int, ...], int] = {}
        # -- trail / scopes -----------------------------------------------
        self.trail: List[int] = []
        self.trail_objs: List[object] = []
        self.scopes: List[int] = []
        self.scopes_objs: List[int] = []
        self.conflict: Optional[str] = None
        self.generation: int = 0
        self.events: List[int] = []
        #: Python-level structural visits: object-graph touches in the hot
        #: paths.  The kernel only ever walks ``Term`` objects while
        #: interning; matching and merging run over int arrays and count
        #: nothing (docs/KERNELS.md).
        self.struct_visits: int = 0
        t = self.add_term(TRUE)
        f = self.add_term(FALSE)
        self._assert_diseq_ids(t, f)

    # -- union-find -----------------------------------------------------------

    def find(self, node_id: int) -> int:
        parent = self.parent
        root = node_id
        while parent[root] != root:
            root = parent[root]
        # Full path compression, trailed: each rewritten pointer is one
        # [x, old, OP_PARENT] record, so ``pop`` restores the forest shape
        # that unions popped later in the trail rely on.
        if parent[node_id] != root:
            trail = self.trail
            x = node_id
            while parent[x] != root:
                nxt = parent[x]
                trail.append(x)
                trail.append(nxt)
                trail.append(_OP_PARENT)
                parent[x] = root
                x = nxt
        return root

    # -- function-symbol interning ---------------------------------------------

    def intern_fn(self, fn: str) -> int:
        fid = self.fn_ids.get(fn, -1)
        if fid >= 0:
            return fid
        fid = len(self.fn_names)
        self.fn_ids[fn] = fid
        self.fn_names.append(fn)
        self.fn_rows.append([])
        self.fn_is_ctor.append(fn in self.constructors)
        self.fn_is_arith.append(fn in ARITH_FNS)
        self.fn_maxmod.append(self.generation)
        return fid

    # -- term interning ---------------------------------------------------------

    def add_term(self, term: Term) -> int:
        """Intern a ground term, returning its node id (congruence-aware)."""
        existing = self.term_to_node.get(term, -1)
        if existing >= 0:
            return existing
        if isinstance(term, LVar):
            raise ValueError(f"cannot intern non-ground term {term}")
        self.struct_visits += 1
        if isinstance(term, IntConst):
            return self._new_node(term, -1, [], 1, term.value)
        arg_ids: List[int] = []
        for a in term.args:
            arg_ids.append(self.add_term(a))
        fid = self.intern_fn(term.fn)
        node_id = self._new_node(term, fid, arg_ids, 0, 0)
        # Congruence with an existing application.
        sig: List[int] = [fid]
        for a in arg_ids:
            sig.append(self.find(a))
        key = tuple(sig)
        other = self.sig_table.get(key, -1)
        if other >= 0 and self.find(other) != self.find(node_id):
            self._merge_ids(node_id, other, "congruence on " + term.fn)
        elif other < 0:
            self.sig_table[key] = node_id
            self.trail.append(len(self.trail_objs))
            self.trail.append(_OP_SIG)
            self.trail_objs.append(key)
        trail = self.trail
        for a in arg_ids:
            root = self.find(a)
            self.uses[root].append(node_id)
            trail.append(root)
            trail.append(_OP_USE)
        self._post_node_theories(node_id)
        return node_id

    def _new_node(
        self, term: Term, fid: int, arg_ids: List[int], ih: int, iv: int
    ) -> int:
        node_id = len(self.parent)
        self.parent.append(node_id)
        self.rank.append(0)
        self.fn_id.append(fid)
        self.arg_start.append(len(self.arena))
        self.arg_len.append(len(arg_ids))
        self.arena.extend(arg_ids)
        self.next_sib.append(node_id)
        self.int_has.append(ih)
        self.int_val.append(iv)
        self.ctor.append(node_id if fid >= 0 and self.fn_is_ctor[fid] else -1)
        self.node_mod.append(self.generation)
        self.node_terms.append(term)
        self.best_term.append(term)
        self.uses.append([])
        self.diseq.append(set())
        if fid >= 0:
            self.fn_rows[fid].append(node_id)
            if self.generation > self.fn_maxmod[fid]:
                self.fn_maxmod[fid] = self.generation
        self.term_to_node[term] = node_id
        self.trail.append(node_id)
        self.trail.append(_OP_NODE)
        return node_id

    def bump_generation(self) -> int:
        """Advance the generation counter (one instantiation round)."""
        self.generation += 1
        return self.generation

    def _touch_parents(self, root: int) -> None:
        """Stamp, transitively, the parents of ``root``'s class: every
        application node whose descent can now reach further."""
        g = self.generation
        node_mod = self.node_mod
        trail = self.trail
        fn_id = self.fn_id
        fn_maxmod = self.fn_maxmod
        stack = [root]
        while stack:
            r = stack.pop()
            for p in self.uses[r]:
                if node_mod[p] != g:
                    trail.append(p)
                    trail.append(node_mod[p])
                    trail.append(_OP_MOD)
                    node_mod[p] = g
                    fid = fn_id[p]
                    if fid >= 0 and g > fn_maxmod[fid]:
                        fn_maxmod[fid] = g
                    stack.append(self.find(p))

    def _post_node_theories(self, node_id: int) -> None:
        fid = self.fn_id[node_id]
        root = self.find(node_id)
        if fid >= 0 and self.fn_is_ctor[fid] and self.ctor[root] < 0:
            self._set_class_ctor(root, node_id)
        self._try_fold_arith(node_id, None)

    # -- assertions ------------------------------------------------------------

    def assert_eq(self, t1: Term, t2: Term) -> bool:
        try:
            a = self.add_term(t1)
            b = self.add_term(t2)
            self._merge_ids(a, b, f"asserted {t1} = {t2}")
            return True
        except EGraphConflict as c:
            self.conflict = c.reason
            return False

    def assert_diseq(self, t1: Term, t2: Term) -> bool:
        try:
            a = self.add_term(t1)
            b = self.add_term(t2)
            self._assert_diseq_ids(a, b)
            return True
        except EGraphConflict as c:
            self.conflict = c.reason
            return False

    def _assert_diseq_ids(self, a: int, b: int) -> None:
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            raise EGraphConflict(
                f"disequality between equal terms {self.node_terms[a]} "
                f"and {self.node_terms[b]}"
            )
        if rb not in self.diseq[ra]:
            self.diseq[ra].add(rb)
            self.diseq[rb].add(ra)
            self.trail.append(ra)
            self.trail.append(rb)
            self.trail.append(_OP_DISEQ)
            self.events.append(ra)
            self.events.append(rb)

    def are_equal(self, t1: Term, t2: Term) -> bool:
        a = self.add_term(t1)
        b = self.add_term(t2)
        return self.find(a) == self.find(b)

    def are_diseq(self, t1: Term, t2: Term) -> bool:
        a = self.add_term(t1)
        b = self.add_term(t2)
        return self._ids_diseq(a, b)

    def _ids_diseq(self, a: int, b: int) -> bool:
        return self.relation_ids(a, b) == 0

    def relation_ids(self, a: int, b: int) -> int:
        """The class relation of two node ids: ``1`` equal, ``0`` provably
        disequal, ``-1`` undetermined (each id canonicalized once)."""
        parent = self.parent
        ra = parent[a]
        if ra != parent[ra]:
            ra = self.find(a)
        rb = parent[b]
        if rb != parent[rb]:
            rb = self.find(b)
        if ra == rb:
            return 1
        if rb in self.diseq[ra]:
            return 0
        # Theory-level disequality: distinct numerals / distinct constructors.
        ha = self.int_has[ra]
        hb = self.int_has[rb]
        if ha and hb and self.int_val[ra] != self.int_val[rb]:
            return 0
        ca = self.ctor[ra]
        cb = self.ctor[rb]
        if ca >= 0 and cb >= 0 and self.fn_id[ca] != self.fn_id[cb]:
            return 0
        if (ha and cb >= 0) or (hb and ca >= 0):
            return 0
        return -1

    # -- merging ------------------------------------------------------------------

    def _merge_ids(self, a: int, b: int, reason: str) -> None:
        pending: List[Tuple[int, int, str]] = [(a, b, reason)]
        trail = self.trail
        while pending:
            x, y, why = pending.pop()
            rx = self.find(x)
            ry = self.find(y)
            if rx == ry:
                continue
            if ry in self.diseq[rx]:
                raise EGraphConflict(
                    f"merge of disequal classes ({self.best_term[rx]} "
                    f"vs {self.best_term[ry]}): {why}"
                )
            self._theory_premerge(rx, ry, pending, why)
            if self.rank[rx] < self.rank[ry]:
                rx, ry = ry, rx
            # ry is absorbed into rx.  Wake policy: a watched pair's
            # relation can only change through the absorbed class (log
            # ry), or against the surviving class when it gains a theory
            # annotation or a
            # disequality from the absorbed one (log rx then) — inherited
            # disequalities only ever pair a partner with rx's class, so
            # rx's bucket covers them.  Skipping the surviving root
            # otherwise keeps hub classes (e.g. TRUE's) from waking every
            # watcher on every assert.
            self.events.append(ry)
            if (
                (self.int_has[ry] and not self.int_has[rx])
                or (self.ctor[ry] >= 0 and self.ctor[rx] < 0)
                or self.diseq[ry]
            ):
                self.events.append(rx)
            trail.append(ry)
            trail.append(rx)
            trail.append(self.rank[rx])
            trail.append(self.int_has[rx])
            trail.append(self.int_val[rx])
            trail.append(self.ctor[rx])
            trail.append(_OP_UNION)
            if self.rank[rx] == self.rank[ry]:
                self.rank[rx] += 1
            self.parent[ry] = rx
            # Splice the two member cycles (undo is the same swap).
            ns = self.next_sib
            ns[rx], ns[ry] = ns[ry], ns[rx]
            # Merge theory annotations.
            if self.int_has[ry] and not self.int_has[rx]:
                self.int_has[rx] = 1
                self.int_val[rx] = self.int_val[ry]
            if self.ctor[ry] >= 0 and self.ctor[rx] < 0:
                self.ctor[rx] = self.ctor[ry]
            old_best = self.best_term[rx]
            new_best = self.best_term[ry]
            if self._term_order(new_best) < self._term_order(old_best):
                trail.append(rx)
                trail.append(len(self.trail_objs))
                trail.append(_OP_BEST)
                self.trail_objs.append(old_best)
                self.best_term[rx] = new_best
            # Migrate disequalities (iterated directly: the merge never
            # mutates ``diseq[ry]`` itself — ``other`` can never be ``rx``,
            # that case raised a conflict above).
            diseq = self.diseq
            for other in diseq[ry]:
                was_in_rx = 1 if other in diseq[rx] else 0
                diseq[other].discard(ry)
                diseq[other].add(rx)
                diseq[rx].add(other)
                trail.append(ry)
                trail.append(other)
                trail.append(rx)
                trail.append(was_in_rx)
                trail.append(_OP_DISEQ_MOVED)
            # Congruence: parents of ry may now collide.
            moved_parents = self.uses[ry]
            trail.append(rx)
            trail.append(len(self.uses[rx]))
            trail.append(_OP_USE_MERGE)
            self.uses[rx].extend(moved_parents)
            arena = self.arena
            for p in moved_parents:
                sig: List[int] = [self.fn_id[p]]
                base = self.arg_start[p]
                for i in range(self.arg_len[p]):
                    sig.append(self.find(arena[base + i]))
                key = tuple(sig)
                other_node = self.sig_table.get(key, -1)
                if other_node < 0:
                    self.sig_table[key] = p
                    trail.append(len(self.trail_objs))
                    trail.append(_OP_SIG)
                    self.trail_objs.append(key)
                elif self.find(other_node) != self.find(p):
                    pending.append(
                        (p, other_node,
                         "congruence on " + self.fn_names[self.fn_id[p]])
                    )
            # Arithmetic folding may now apply to parents.
            for p in self.uses[rx]:
                self._try_fold_arith(p, pending)
            # Mod-times: parents (transitively) of the merged class can now
            # match E-matching patterns they could not before.
            self._touch_parents(rx)

    def _theory_premerge(
        self, rx: int, ry: int, pending: List[Tuple[int, int, str]], why: str
    ) -> None:
        hx = self.int_has[rx]
        hy = self.int_has[ry]
        if hx and hy and self.int_val[rx] != self.int_val[ry]:
            raise EGraphConflict(
                f"distinct numerals {self.int_val[rx]} and "
                f"{self.int_val[ry]} merged: {why}"
            )
        cx = self.ctor[rx]
        cy = self.ctor[ry]
        if cx >= 0 and cy >= 0:
            fx = self.fn_id[cx]
            fy = self.fn_id[cy]
            if fx != fy or self.arg_len[cx] != self.arg_len[cy]:
                raise EGraphConflict(
                    f"distinct constructors {self.fn_names[fx]} and "
                    f"{self.fn_names[fy]} merged: {why}"
                )
            # Injectivity: equal constructor applications have equal fields.
            arena = self.arena
            bx = self.arg_start[cx]
            by = self.arg_start[cy]
            fname = self.fn_names[fx]
            for i in range(self.arg_len[cx]):
                pending.append(
                    (arena[bx + i], arena[by + i], f"injectivity of {fname}")
                )
        if (hx and cy >= 0) or (hy and cx >= 0):
            raise EGraphConflict(f"numeral merged with constructor term: {why}")

    def _set_class_ctor(self, root: int, node_id: int) -> None:
        self.trail.append(root)
        self.trail.append(self.ctor[root])
        self.trail.append(_OP_CTOR)
        self.ctor[root] = node_id

    def _try_fold_arith(
        self, node_id: int, pending: Optional[List[Tuple[int, int, str]]]
    ) -> None:
        fid = self.fn_id[node_id]
        if fid < 0 or not self.fn_is_arith[fid]:
            return
        values: List[int] = []
        arena = self.arena
        base = self.arg_start[node_id]
        for i in range(self.arg_len[node_id]):
            r = self.find(arena[base + i])
            if not self.int_has[r]:
                return
            values.append(self.int_val[r])
        result = eval_arith(self.fn_names[fid], values)
        if result is None:
            return
        lit = self.add_term(IntConst(result))
        reason = f"arithmetic {self.fn_names[fid]}{tuple(values)}"
        if pending is not None:
            pending.append((node_id, lit, reason))
        else:
            self._merge_ids(node_id, lit, reason)

    @staticmethod
    def _term_order(t: Term) -> Tuple[int, str]:
        return (term_size(t), term_str(t))

    # -- scopes ------------------------------------------------------------------

    def push(self) -> None:
        """Open a backtracking scope."""
        self.scopes.append(len(self.trail))
        self.scopes_objs.append(len(self.trail_objs))

    def pop(self) -> None:
        """Undo everything since the matching :meth:`push`.

        The trail is walked by index (opcode at ``i-1``, operands below it)
        and truncated once at the end — popping the undo records one int at
        a time cost more than the undos themselves."""
        mark = self.scopes.pop()
        omark = self.scopes_objs.pop()
        trail = self.trail
        parent = self.parent
        objs = self.trail_objs
        node_mod = self.node_mod
        i = len(trail)
        while i > mark:
            op = trail[i - 1]
            if op == _OP_PARENT:
                parent[trail[i - 3]] = trail[i - 2]
                i -= 3
            elif op == _OP_MOD:
                node_mod[trail[i - 3]] = trail[i - 2]
                i -= 3
            elif op == _OP_NODE:
                term = self.node_terms.pop()
                fid = self.fn_id.pop()
                if fid >= 0:
                    self.fn_rows[fid].pop()
                parent.pop()
                self.rank.pop()
                self.arg_start.pop()
                n = self.arg_len.pop()
                if n:
                    del self.arena[len(self.arena) - n:]
                self.next_sib.pop()
                self.int_has.pop()
                self.int_val.pop()
                self.ctor.pop()
                node_mod.pop()
                self.best_term.pop()
                self.uses.pop()
                self.diseq.pop()
                del self.term_to_node[term]
                i -= 2
            elif op == _OP_UNION:
                ry = trail[i - 7]
                rx = trail[i - 6]
                parent[ry] = ry
                self.rank[rx] = trail[i - 5]
                ns = self.next_sib
                ns[rx], ns[ry] = ns[ry], ns[rx]
                self.int_has[rx] = trail[i - 4]
                self.int_val[rx] = trail[i - 3]
                self.ctor[rx] = trail[i - 2]
                i -= 7
            elif op == _OP_BEST:
                self.best_term[trail[i - 3]] = objs[trail[i - 2]]  # type: ignore[assignment]
                i -= 3
            elif op == _OP_SIG:
                self.sig_table.pop(objs[trail[i - 2]], None)  # type: ignore[arg-type]
                i -= 2
            elif op == _OP_USE:
                self.uses[trail[i - 2]].pop()
                i -= 2
            elif op == _OP_DISEQ:
                ra = trail[i - 3]
                rb = trail[i - 2]
                self.diseq[ra].discard(rb)
                self.diseq[rb].discard(ra)
                i -= 3
            elif op == _OP_DISEQ_MOVED:
                ry = trail[i - 5]
                other = trail[i - 4]
                rx = trail[i - 3]
                was_in_rx = trail[i - 2]
                self.diseq[other].add(ry)
                if not was_in_rx:
                    self.diseq[other].discard(rx)
                    self.diseq[rx].discard(other)
                i -= 5
            elif op == _OP_USE_MERGE:
                del self.uses[trail[i - 3]][trail[i - 2]:]
                i -= 3
            elif op == _OP_CTOR:
                self.ctor[trail[i - 3]] = trail[i - 2]
                i -= 3
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown trail opcode {op}")
        del trail[mark:]
        del objs[omark:]
        self.conflict = None

    # -- queries for E-matching and reporting ---------------------------------------

    def members(self, root: int) -> List[int]:
        """The equivalence class of ``root`` as a list (cycle order)."""
        start = self.find(root)
        out = [start]
        ns = self.next_sib
        m = ns[start]
        while m != start:
            out.append(m)
            m = ns[m]
        return out

    def representative(self, root: int) -> Term:
        return self.best_term[self.find(root)]

    def class_int_value(self, root: int) -> Optional[int]:
        r = self.find(root)
        if self.int_has[r]:
            return self.int_val[r]
        return None


# ---------------------------------------------------------------------------
# Flat E-matching: triggers compiled to instruction programs.
# ---------------------------------------------------------------------------

# Matcher opcodes.
_M_TOP = 0  # iterate candidate nodes of fn row (pattern term's head)
_M_TOP_INT = 1  # top-level integer-literal pattern
_M_VAR = 2  # bind/check a variable against an argument class
_M_INT = 3  # check an argument class's numeral value
_M_APP = 4  # iterate class members with a given head symbol

#: Shared empty candidate list (watermark-pruned TOP frames, APP frames).
_EMPTY_ROWS: List[int] = []


class FlatProgram:
    """A compiled (multi-)pattern: parallel instruction arrays plus the
    variable-slot metadata needed to rebuild name-keyed bindings.

    Head symbols are stored as *names* (``fn_names``; TOP/APP ``f0`` is an
    index into it), so one compiled program serves every e-graph: triggers
    come from a fixed axiom set but a fresh e-graph is built per proof, and
    recompiling the same trigger hundreds of times dominated small proofs.
    The name -> fn-id resolution for the e-graph currently being matched is
    memoized on the program (``_resolved``); interning happens on first
    match against each e-graph, in first-appearance order — exactly when
    and in the order the per-e-graph compiler used to intern."""

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.f0: List[int] = []  # TOP/APP: fn-name idx | VAR: slot | INT: value
        self.f1: List[int] = []  # TOP: pattern idx | VAR/INT/APP: parent reg
        self.f2: List[int] = []  # TOP: arity | VAR/INT/APP: arg index
        self.f3: List[int] = []  # TOP/APP: own register | TOP_INT: const idx
        self.f4: List[int] = []  # APP: arity
        self.consts: List[Term] = []  # TOP_INT literal terms
        self.fn_names: List[str] = []  # head-symbol pool, first-appearance order
        self.top_heads: List[int] = []  # per pattern: head fn-name idx, -1 for TOP_INT
        self.simple: List[int] = []  # TOP/APP: 1 when ops[pc+1:] is all VAR/INT
        self.n_regs: int = 0
        self.n_patterns: int = 0
        self.var_names: List[str] = []  # slot -> variable name
        self.sorted_slots: List[int] = []  # slots in variable-name order
        #: ``(egraph, [fn ids])`` for the last e-graph matched — a single
        #: attribute so concurrent searches at worst re-resolve, never mix.
        self._resolved: Optional[Tuple["FlatEGraph", List[int]]] = None

    def fn_ids_for(self, eg: "FlatEGraph") -> List[int]:
        resolved = self._resolved
        if resolved is not None and resolved[0] is eg:
            return resolved[1]
        fids = [eg.intern_fn(name) for name in self.fn_names]
        self._resolved = (eg, fids)
        return fids


#: Compiled programs keyed by trigger (a tuple of hash-consed pattern
#: terms): the axiom set is fixed per theory, so this is small and saves a
#: recompile per quantified clause per proof.
_PROGRAM_CACHE: Dict[Tuple, FlatProgram] = {}


def compiled_trigger(patterns) -> FlatProgram:
    """The shared compiled form of a trigger (compiling it on first use)."""
    prog = _PROGRAM_CACHE.get(patterns)
    if prog is None:
        prog = _PROGRAM_CACHE[patterns] = compile_trigger(None, patterns)
    return prog


def _fn_slot(prog: FlatProgram, name: str) -> int:
    try:
        return prog.fn_names.index(name)
    except ValueError:
        prog.fn_names.append(name)
        return len(prog.fn_names) - 1


def compile_trigger(eg, patterns) -> FlatProgram:
    """Compile a trigger (tuple of pattern terms).

    Programs are e-graph independent: head symbols compile to indexes into
    the program's name pool and resolve to fn ids per e-graph at match
    time (``eg`` is accepted for signature compatibility and unused)."""
    prog = FlatProgram()
    slots: Dict[str, int] = {}
    for index, pattern in enumerate(patterns):
        if isinstance(pattern, LVar):
            # Bare-variable triggers would match every class.
            raise ValueError("bare variable used as a trigger pattern")
        if isinstance(pattern, IntConst):
            prog.ops.append(_M_TOP_INT)
            prog.top_heads.append(-1)
            prog.f0.append(0)
            prog.f1.append(index)
            prog.f2.append(0)
            prog.f3.append(len(prog.consts))
            prog.f4.append(0)
            prog.consts.append(pattern)
            continue
        reg = prog.n_regs
        prog.n_regs += 1
        prog.ops.append(_M_TOP)
        prog.f0.append(_fn_slot(prog, pattern.fn))
        prog.top_heads.append(prog.f0[-1])
        prog.f1.append(index)
        prog.f2.append(len(pattern.args))
        prog.f3.append(reg)
        prog.f4.append(0)
        _compile_args(prog, pattern, reg, slots)
    # Mark each iterating op (TOP candidate row, APP member cycle) whose
    # continuation is nothing but VAR/INT checks: the interpreter runs
    # that chain inline in its loop instead of paying a ``run`` frame per
    # candidate/member.  Flat triggers hit this at the TOP; nested
    # triggers hit it at their innermost application.
    n_ops = len(prog.ops)
    simple = [0] * n_ops
    for p in range(n_ops):
        if prog.ops[p] in (_M_TOP, _M_APP) and all(
            o == _M_VAR or o == _M_INT for o in prog.ops[p + 1 : n_ops]
        ):
            simple[p] = 1
    prog.simple = simple
    prog.n_patterns = len(patterns)
    prog.var_names = [""] * len(slots)
    for name, slot in slots.items():
        prog.var_names[slot] = name
    prog.sorted_slots = sorted(range(len(slots)), key=prog.var_names.__getitem__)
    return prog


def _compile_args(
    prog: FlatProgram, pattern, reg: int, slots: Dict[str, int]
) -> None:
    for arg_index, child in enumerate(pattern.args):
        if isinstance(child, LVar):
            slot = slots.get(child.name, -1)
            if slot < 0:
                slot = len(slots)
                slots[child.name] = slot
            prog.ops.append(_M_VAR)
            prog.f0.append(slot)
            prog.f1.append(reg)
            prog.f2.append(arg_index)
            prog.f3.append(0)
            prog.f4.append(0)
        elif isinstance(child, IntConst):
            prog.ops.append(_M_INT)
            prog.f0.append(child.value)
            prog.f1.append(reg)
            prog.f2.append(arg_index)
            prog.f3.append(0)
            prog.f4.append(0)
        else:
            child_reg = prog.n_regs
            prog.n_regs += 1
            prog.ops.append(_M_APP)
            prog.f0.append(_fn_slot(prog, child.fn))
            prog.f1.append(reg)
            prog.f2.append(arg_index)
            prog.f3.append(child_reg)
            prog.f4.append(len(child.args))
            _compile_args(prog, child, child_reg, slots)


class _MatchRun:
    """One ``flat_ematch`` enumeration: machine state shared across the
    recursive instruction interpreter."""

    def __init__(
        self, eg: FlatEGraph, prog: FlatProgram, since: int,
        deadline: Optional[float],
    ) -> None:
        self.eg = eg
        self.prog = prog
        self.fids = prog.fn_ids_for(eg)
        self.since = since
        self.deadline = deadline
        self.tick = 0
        self.restricted = -1
        self.env: List[int] = [-1] * len(prog.var_names)
        self.regs: List[int] = [0] * prog.n_regs
        #: Undo scratch for the inline VAR/INT chain in ``run`` (slots
        #: bound by the current candidate; at most one entry per variable).
        self.scratch: List[int] = [0] * len(prog.var_names)
        #: Undo stack of bound slots for the iterative interpreter (each
        #: slot is bound at most once at any time, so var count bounds it).
        self.bstack: List[int] = [0] * len(prog.var_names)
        #: Preallocated backtracking frames, one slot per program op (an
        #: over-estimate of the deepest TOP/APP nesting): the iterating
        #: op's pc, its iteration state (TOP: next row index; APP: next
        #: member or -1), its candidate rows (TOP) or cycle anchor (APP),
        #: and the bound-stack mark to unwind to between candidates.
        n_ops = len(prog.ops)
        self.fr_pc: List[int] = [0] * n_ops
        self.fr_state: List[int] = [0] * n_ops
        self.fr_aux: List = [None] * n_ops
        self.fr_mark: List[int] = [0] * n_ops
        self.seen: Set[Tuple[int, ...]] = set()
        self.results: List[Dict[str, int]] = []

    def check_deadline(self) -> None:
        if self.deadline is None:
            return
        self.tick += 1
        if self.tick % _DEADLINE_STRIDE == 0 and time.monotonic() > self.deadline:
            raise MatchTimeout()

    def record(self) -> None:
        env = self.env
        prog = self.prog
        # env slots hold class roots (VAR binds a root; matching never
        # merges, and path compression never demotes a root), so the
        # canonical dedup key is the env itself — no ``find`` needed.
        key = tuple([env[slot] for slot in prog.sorted_slots])
        seen = self.seen
        if key in seen:
            return
        seen.add(key)
        binding: Dict[str, int] = {}
        names = prog.var_names
        for slot in range(len(names)):
            v = env[slot]
            if v >= 0:
                binding[names[slot]] = v
        self.results.append(binding)

    def run(self, pc: int) -> None:
        """Interpret the program from ``pc``.

        Fully iterative: linear ops (VAR/INT checks, top-level numeral
        gates) advance ``pc`` directly, and the iterating ops (TOP
        candidate rows, APP member cycles) push explicit backtracking
        frames on parallel stacks instead of recursing, with one shared
        undo stack of bound slots per frame mark.  Chains that are
        nothing but VAR/INT checks (compile-time ``simple`` flag) still
        run inline at the dispatch site.  Enumeration order, deadline
        ticks, and dedup are exactly the recursive interpreter's."""
        prog = self.prog
        ops = prog.ops
        n = len(ops)
        eg = self.eg
        env = self.env
        regs = self.regs
        f0 = prog.f0
        f1 = prog.f1
        f2 = prog.f2
        f3 = prog.f3
        f4 = prog.f4
        fids = self.fids
        arena = eg.arena
        parent = eg.parent
        fn_id = eg.fn_id
        arg_len = eg.arg_len
        arg_start = eg.arg_start
        next_sib = eg.next_sib
        int_has = eg.int_has
        int_val = eg.int_val
        simple_flags = prog.simple
        scratch = self.scratch
        deadline = self.deadline
        since = self.since
        restricted = self.restricted
        bstack = self.bstack  # shared undo stack of bound slots
        nbound = 0
        fr_pc = self.fr_pc
        fr_state = self.fr_state
        fr_aux = self.fr_aux
        fr_mark = self.fr_mark
        depth = 0
        while True:
            # -- linear advance: filters and binders move pc -------------
            failed = False
            op = -1
            while True:
                if pc == n:
                    self.record()
                    failed = True
                    break
                op = ops[pc]
                if op == _M_VAR:
                    # Inline one-hop find: after compression almost every
                    # arena entry is at most one pointer from its root;
                    # fall back to the full (trailed, compressing) walk
                    # otherwise.
                    x = arena[regs[f1[pc]] + f2[pc]]
                    root = parent[x]
                    if root != parent[root]:
                        root = eg.find(x)
                    slot = f0[pc]
                    cur = env[slot]
                    if cur < 0:
                        env[slot] = root
                        bstack[nbound] = slot
                        nbound += 1
                        pc += 1
                        continue
                    if cur == root:
                        # env always holds class roots and matching never
                        # merges, so find(cur) == cur; a plain compare
                        # suffices.
                        pc += 1
                        continue
                    failed = True
                    break
                if op == _M_INT:
                    x = arena[regs[f1[pc]] + f2[pc]]
                    root = parent[x]
                    if root != parent[root]:
                        root = eg.find(x)
                    if int_has[root] and int_val[root] == f0[pc]:
                        pc += 1
                        continue
                    failed = True
                    break
                if op == _M_TOP_INT:
                    node = eg.term_to_node.get(prog.consts[f3[pc]], -1)
                    if node >= 0 and (
                        since <= 0
                        or f1[pc] != restricted
                        or eg.node_mod[node] >= since
                    ):
                        pc += 1
                        continue
                    failed = True
                    break
                break  # _M_TOP or _M_APP: open a frame
            if not failed:
                if op == _M_TOP:
                    fid = fids[f0[pc]]
                    rows = eg.fn_rows[fid]
                    if since > 0 and f1[pc] == restricted:
                        # The incremental pass: mod-stamp filter first;
                        # the per-fn watermark proves the filtered list
                        # empty without building it.
                        if eg.fn_maxmod[fid] < since:
                            rows = _EMPTY_ROWS
                        else:
                            node_mod = eg.node_mod
                            rows = [r for r in rows if node_mod[r] >= since]
                    fr_pc[depth] = pc
                    fr_state[depth] = 0
                    fr_aux[depth] = rows
                    fr_mark[depth] = nbound
                    depth += 1
                else:
                    x = arena[regs[f1[pc]] + f2[pc]]
                    start = parent[x]
                    if start != parent[start]:
                        start = eg.find(x)
                    fr_pc[depth] = pc
                    fr_state[depth] = start
                    fr_aux[depth] = start
                    fr_mark[depth] = nbound
                    depth += 1
            # -- backtrack: next candidate of the innermost open frame ---
            dispatched = False
            while depth:
                top = depth - 1
                mark = fr_mark[top]
                while nbound > mark:
                    nbound -= 1
                    env[bstack[nbound]] = -1
                fpc = fr_pc[top]
                nxt = fpc + 1
                last = nxt == n
                simple = not last and simple_flags[fpc] == 1
                if ops[fpc] == _M_APP:
                    fid = fids[f0[fpc]]
                    arity = f4[fpc]
                    reg = f3[fpc]
                    start = fr_aux[top]
                    member = fr_state[top]
                    while member >= 0:
                        m = member
                        member = next_sib[m]
                        if member == start:
                            member = -1
                        if fn_id[m] == fid and arg_len[m] == arity:
                            regs[reg] = arg_start[m]
                            if simple:
                                # The chain reads through ``regs``
                                # because its ops may reference both this
                                # APP's child register and enclosing
                                # registers.
                                j = nxt
                                nb = 0
                                while True:
                                    if j == n:
                                        self.record()
                                        break
                                    x = arena[regs[f1[j]] + f2[j]]
                                    root = parent[x]
                                    if root != parent[root]:
                                        root = eg.find(x)
                                    if ops[j] == _M_VAR:
                                        slot = f0[j]
                                        cur = env[slot]
                                        if cur < 0:
                                            env[slot] = root
                                            scratch[nb] = slot
                                            nb += 1
                                        elif cur != root:
                                            break
                                    elif not (
                                        int_has[root] and int_val[root] == f0[j]
                                    ):
                                        break
                                    j += 1
                                while nb:
                                    nb -= 1
                                    env[scratch[nb]] = -1
                            elif last:
                                self.record()
                            else:
                                fr_state[top] = member
                                pc = nxt
                                dispatched = True
                                break
                else:
                    rows = fr_aux[top]
                    idx = fr_state[top]
                    nrows = len(rows)
                    arity = f2[fpc]
                    reg = f3[fpc]
                    while idx < nrows:
                        node = rows[idx]
                        idx += 1
                        # Deadline ticks, inlined (same arithmetic as
                        # ``check_deadline`` — one tick per candidate).
                        if deadline is not None:
                            tick = self.tick + 1
                            self.tick = tick
                            if (
                                tick % _DEADLINE_STRIDE == 0
                                and time.monotonic() > deadline
                            ):
                                raise MatchTimeout()
                        if arg_len[node] != arity:
                            continue
                        if simple:
                            # No register write: every chain op reads this
                            # TOP's register, so the argument base is used
                            # directly.
                            base = arg_start[node]
                            j = nxt
                            nb = 0
                            while True:
                                if j == n:
                                    self.record()
                                    break
                                x = arena[base + f2[j]]
                                root = parent[x]
                                if root != parent[root]:
                                    root = eg.find(x)
                                if ops[j] == _M_VAR:
                                    slot = f0[j]
                                    cur = env[slot]
                                    if cur < 0:
                                        env[slot] = root
                                        scratch[nb] = slot
                                        nb += 1
                                    elif cur != root:
                                        break
                                elif not (
                                    int_has[root] and int_val[root] == f0[j]
                                ):
                                    break
                                j += 1
                            while nb:
                                nb -= 1
                                env[scratch[nb]] = -1
                        elif last:
                            self.record()
                        else:
                            fr_state[top] = idx
                            regs[reg] = arg_start[node]
                            pc = nxt
                            dispatched = True
                            break
                if dispatched:
                    break
                # Frame exhausted: pop it and resume its parent.
                depth = top
            if not dispatched:
                break
        while nbound:
            nbound -= 1
            env[bstack[nbound]] = -1


def flat_ematch(
    eg: FlatEGraph,
    prog: FlatProgram,
    since: int = 0,
    deadline: Optional[float] = None,
) -> List[Dict[str, int]]:
    """All bindings of the compiled trigger against the e-graph,
    deduplicated by the canonical (variable, root) key.

    With ``since > 0`` only bindings that involve structure created or
    touched at generation ``since`` or later are enumerated.  For a
    multi-pattern of k terms this takes k passes — pass i restricts
    pattern term i's top-level candidates to touched nodes and leaves the
    other terms unrestricted — because a new binding need only be new in
    *one* of its components.  Completeness rests on the stamp propagation
    in ``_touch_parents``."""
    if since > 0:
        # Quiescence pre-check: each restricted pass starts at its
        # restricted pattern's head row, and the per-fn watermark proves
        # the filtered candidate list empty when nothing with that head
        # was stamped since the last completed round — so if that holds
        # for every pattern, every pass enumerates nothing (and ticks
        # nothing), exactly as if the passes had run.  TOP_INT patterns
        # (head -1) have no watermark and fall through to the full run.
        fids = prog.fn_ids_for(eg)
        fn_maxmod = eg.fn_maxmod
        for head in prog.top_heads:
            if head < 0 or fn_maxmod[fids[head]] >= since:
                break
        else:
            return []
    run = _MatchRun(eg, prog, since, deadline)
    if since > 0:
        for restricted in range(prog.n_patterns):
            run.restricted = restricted
            run.run(0)
    else:
        run.restricted = -1
        run.run(0)
    return run.results
