"""Test oracle for the e-graph layer: a naive congruence closure.

Checks :class:`repro.prover.kernels.flat.FlatEGraph`.  The oracle keeps
only the *inputs* — the terms added and the equalities and disequalities
asserted in each open scope — and recomputes everything from scratch
after every operation: a plain union-find, congruence closure by comparing
every pair of applications (quadratic), and the same theory rules as the
kernel:

* distinct numerals are distinct, and a numeral-valued class equals every
  other class of the same value;
* constructor applications with distinct heads are distinct, equal ones
  have equal arguments (injectivity), and no numeral equals one;
* ``@true`` differs from ``@false``;
* arithmetic heads over numeral-valued classes fold through
  :func:`repro.prover.arith.eval_arith`.

``pop`` just drops the scope's inputs, so there is no trail to get wrong.
``tests/test_kernels.py`` drives both on random traces and compares the
relation (equal / disequal / unknown) and conflict status of every term
pair after every operation.  Mutants this catches (EXPERIMENTS.md, E12):
a dropped use-list entry in congruence (M4), both on the traces and in
the audit below.  A dropped surviving-root wake (M1) is invisible here —
it only affects the prover's watch lists.
"""

import contextlib

from repro.logic.terms import App, IntConst
from repro.prover.arith import ARITH_FNS, eval_arith
from repro.prover.kernels.flat import FALSE, TRUE


class NaiveEGraph:
    """Congruence closure recomputed from the asserted inputs."""

    def __init__(self, constructors=()):
        self.constructors = frozenset(constructors)
        # One frame per open scope: (terms added, equalities, disequalities).
        self.frames = [([TRUE, FALSE], [], [(TRUE, FALSE)])]
        self._close()

    # -- inputs ----------------------------------------------------------------

    def push(self):
        self.frames.append(([], [], []))

    def pop(self):
        self.frames.pop()
        self._close()

    def add_term(self, term):
        self.frames[-1][0].append(term)
        self._close()

    def assert_eq(self, t1, t2):
        frame = self.frames[-1]
        frame[0].extend((t1, t2))
        frame[1].append((t1, t2))
        self._close()
        return self.consistent

    def assert_diseq(self, t1, t2):
        frame = self.frames[-1]
        frame[0].extend((t1, t2))
        frame[2].append((t1, t2))
        self._close()
        return self.consistent

    # -- queries ---------------------------------------------------------------

    def relation(self, t1, t2):
        """1 equal, 0 provably disequal, -1 undetermined."""
        a, b = self.find(t1), self.find(t2)
        if a == b:
            return 1
        if frozenset((a, b)) in self.diseqs:
            return 0
        va, vb = self.value.get(a), self.value.get(b)
        ca, cb = self.ctor.get(a), self.ctor.get(b)
        if va is not None and vb is not None and va != vb:
            return 0
        if ca is not None and cb is not None and ca != cb:
            return 0
        if (va is not None and cb is not None) or (vb is not None and ca is not None):
            return 0
        return -1

    def find(self, term):
        parent = self.parent
        while parent[term] != term:
            term = parent[term]
        return term

    def class_of(self, term):
        root = self.find(term)
        return {t for t in self.terms if self.find(t) == root}

    def representative(self, term):
        """The smallest member, counting the numeral a folded class was
        merged with (the kernel adds that numeral as a node)."""
        members = self.class_of(term)
        value = self.value.get(self.find(term))
        if value is not None:
            members.add(IntConst(value))
        return min(members, key=lambda t: (_size(t), str(t)))

    # -- closure ---------------------------------------------------------------

    def _close(self):
        terms = []
        seen = set()
        for frame in self.frames:
            for t in frame[0]:
                _subterms(t, terms, seen)
        self.terms = terms
        self.parent = {t: t for t in terms}
        consistent = True
        for frame in self.frames:
            for t1, t2 in frame[1]:
                self._union(t1, t2)
        apps = [t for t in terms if isinstance(t, App) and t.args]
        changed = True
        while changed:
            changed = False
            for i, s in enumerate(apps):
                for t in apps[i + 1:]:
                    if s.fn != t.fn or len(s.args) != len(t.args):
                        continue
                    if self.find(s) != self.find(t):
                        if all(self.find(x) == self.find(y) for x, y in zip(s.args, t.args)):
                            changed |= self._union(s, t)  # congruence
                    elif s.fn in self.constructors:
                        for x, y in zip(s.args, t.args):  # injectivity
                            changed |= self._union(x, y)
            values = {}
            for t in terms:
                if isinstance(t, IntConst):
                    values.setdefault(self.find(t), set()).add(t.value)
            for t in apps:
                if t.fn in ARITH_FNS:
                    args = [values.get(self.find(a), ()) for a in t.args]
                    if all(len(v) == 1 for v in args):
                        folded = eval_arith(t.fn, [next(iter(v)) for v in args])
                        if folded is not None:
                            values.setdefault(self.find(t), set()).add(folded)
            by_value = {}
            for root, vals in values.items():
                for v in vals:
                    other = by_value.setdefault(v, root)
                    changed |= self._union(other, root)
        # Theory annotations and conflicts over the final partition.
        self.value = {}
        self.ctor = {}
        for t in terms:
            root = self.find(t)
            if isinstance(t, IntConst):
                if self.value.setdefault(root, t.value) != t.value:
                    consistent = False
            elif t.fn in self.constructors:
                head = (t.fn, len(t.args))
                if self.ctor.setdefault(root, head) != head:
                    consistent = False
        for t in apps:
            if t.fn in ARITH_FNS:
                args = [self.value.get(self.find(a)) for a in t.args]
                if None not in args:
                    folded = eval_arith(t.fn, args)
                    root = self.find(t)
                    if folded is not None and self.value.setdefault(root, folded) != folded:
                        consistent = False
        for root in self.value:
            if root in self.ctor:
                consistent = False
        self.diseqs = set()
        for frame in self.frames:
            for t1, t2 in frame[2]:
                a, b = self.find(t1), self.find(t2)
                if a == b:
                    consistent = False
                self.diseqs.add(frozenset((a, b)))
        self.consistent = consistent

    def _union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _subterms(term, out, seen):
    if term in seen:
        return
    seen.add(term)
    if isinstance(term, App):
        for a in term.args:
            _subterms(a, out, seen)
    out.append(term)


def _size(term):
    if isinstance(term, App):
        return 1 + sum(_size(a) for a in term.args)
    return 1


# ---------------------------------------------------------------------------
# Kernel audit: the closure invariants, checked on a live kernel.
#
# Recomputing the naive closure is quadratic, too slow for the e-graphs of
# real proof obligations.  ``audit`` instead checks, in linear time, the
# invariants that define a congruence closure with these theories, on the
# kernel's own state.  ``audited_kernel`` runs it at every decision and
# every instantiation round of every search.
# ---------------------------------------------------------------------------


def audit(eg):
    """Assert the closure invariants of a :class:`FlatEGraph` state."""
    n = len(eg.node_terms)
    find = eg.find
    roots = [find(i) for i in range(n)]
    classes = {}
    for i, r in enumerate(roots):
        classes.setdefault(r, set()).add(i)
    for r, members in classes.items():
        assert set(eg.members(r)) == members, f"member cycle of {r} is stale"
    signatures = {}
    for i, term in enumerate(eg.node_terms):
        assert eg.term_to_node[term] == i
        if isinstance(term, IntConst):
            assert eg.class_int_value(i) == term.value, f"numeral {term} lost"
            continue
        arg_roots = tuple(find(eg.term_to_node[a]) for a in term.args)
        other = signatures.setdefault((term.fn, arg_roots), i)
        assert roots[other] == roots[i], f"congruence missed: {term} vs {eg.node_terms[other]}"
        if term.fn in ARITH_FNS:
            values = [eg.class_int_value(r) for r in arg_roots]
            if None not in values:
                folded = eval_arith(term.fn, values)
                if folded is not None:
                    assert eg.class_int_value(i) == folded, f"{term} not folded"
    for r, members in classes.items():
        terms = [eg.node_terms[m] for m in members]
        heads = {(t.fn, len(t.args)) for t in terms if isinstance(t, App) and t.fn in eg.constructors}
        assert len(heads) <= 1, f"distinct constructors share a class: {heads}"
        if heads:
            assert eg.class_int_value(r) is None, "numeral in a constructor class"
            by_fn = {}
            for t in terms:
                if isinstance(t, App) and t.fn in eg.constructors:
                    first = by_fn.setdefault(t.fn, t)
                    for x, y in zip(first.args, t.args):
                        assert roots[eg.term_to_node[x]] == roots[eg.term_to_node[y]], (
                            f"injectivity missed: {first} vs {t}"
                        )
        assert eg.representative(r) == min(terms, key=lambda t: (_size(t), str(t)))
        for other in eg.diseq[r]:
            assert other != r and roots[other] == other and r in eg.diseq[other]


class AuditedEGraph:
    """Mixin body for :func:`audited_kernel`: audit before every scope
    push (a decision) and every generation bump (a matching round)."""

    def push(self):
        audit(self)
        super().push()

    def bump_generation(self):
        audit(self)
        return super().bump_generation()


@contextlib.contextmanager
def audited_kernel():
    """Run every prover search on an audited kernel."""
    from repro.prover import core

    original = core.FlatEGraph
    core.FlatEGraph = type("AuditedFlatEGraph", (AuditedEGraph, original), {})
    try:
        yield
    finally:
        core.FlatEGraph = original
