"""Test oracle for the prover search: naive rescans and a full re-match.

Checks :class:`repro.prover.core._Search`, whose propagation scan
(``_scan_watched``) re-evaluates only ground clauses woken by e-graph
events, and whose instantiation rounds match only structure stamped since
the previous round (Simplify's mod-times).  Two context managers swap in
the naive definitions:

* :func:`checked_scan` wraps ``_scan_watched``: after every ``"stable"``
  outcome it re-evaluates every unsatisfied ground clause directly against
  the e-graph and asserts that no satisfied clause, unit or conflict was
  missed and that the chosen split is the lowest-index clause with the
  maximal ``(priority, -width)``;
* :func:`full_rematch` makes every round match the whole e-graph
  (``since=0``); the admitted instances, round by round, must not change.

Mutants this catches (EXPERIMENTS.md, E12): a dropped surviving-root wake
in the kernel (M1) and a skipped "re-dirty" undo record (M2).
"""

import contextlib

from repro.logic.formulas import Eq
from repro.logic.terms import App
from repro.prover import core
from repro.prover.kernels.flat import TRUE

_WATCHED_SCAN = core._Search._scan_watched
_FLAT_EMATCH = core.flat_ematch


def _naive_eval(search, clause):
    """``(satisfied, width, first undetermined literal, any undetermined
    kind literal)`` by evaluating every literal of ``clause``."""
    eg = search.egraph
    width, candidate, kind = 0, None, False
    for lit in clause.literals:
        atom = lit.atom
        if isinstance(atom, Eq):
            ta, tb = atom.lhs, atom.rhs
        else:
            ta, tb = App(atom.name, atom.args), TRUE
        a, b = eg.term_to_node.get(ta), eg.term_to_node.get(tb)
        assert a is not None and b is not None, (
            f"open clause mentions a term missing from the e-graph: {clause}"
        )
        rel = eg.relation_ids(a, b)
        if rel < 0:
            width += 1
            kind = kind or core._is_kind_literal(lit)
            if candidate is None:
                candidate = lit
        elif (rel == 1) == lit.positive:
            return True, width, candidate, kind
    return False, width, candidate, kind


def _priority(search, candidate, clause, kind):
    if "seed" in clause.origin:
        return 2
    if "nosplit" in clause.origin or kind:
        return -1
    return core.default_split_priority(candidate, clause)


def _checked(search):
    outcome, split = _WATCHED_SCAN(search)
    if outcome != "stable":
        return outcome, split
    best, best_score = None, None
    for index, clause in enumerate(search.ground):
        if search.sat[index]:
            continue
        satisfied, width, candidate, kind = _naive_eval(search, clause)
        assert not satisfied, f"satisfied clause left open: {clause}"
        assert width > 0, f"conflict missed: {clause}"
        assert width > 1, f"unit missed: {clause}"
        priority = _priority(search, candidate, clause, kind)
        score = (priority, -width)
        if best_score is None or score > best_score:
            best, best_score = (candidate, clause, priority), score
    if best is None:
        assert split is None, f"split chosen with no open clause: {split}"
    else:
        assert split is not None, "open clauses but no split"
        assert split[0] == best[0] and split[1] is best[1] and split[2] == best[2], (
            f"split {split[1]} chosen, naive rescan picks {best[1]}"
        )
    return outcome, split


@contextlib.contextmanager
def checked_scan():
    core._Search._scan_watched = _checked
    try:
        yield
    finally:
        core._Search._scan_watched = _WATCHED_SCAN


@contextlib.contextmanager
def full_rematch():
    core.flat_ematch = lambda eg, prog, since=0, deadline=None: _FLAT_EMATCH(
        eg, prog, 0, deadline
    )
    try:
        yield
    finally:
        core.flat_ematch = _FLAT_EMATCH


@contextlib.contextmanager
def reference_search():
    """Both naive definitions at once."""
    with checked_scan(), full_rematch():
        yield
