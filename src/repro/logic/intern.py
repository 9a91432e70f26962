"""The global intern (hash-cons) table and its observability counters.

Every term and formula constructor in :mod:`repro.logic.terms` and
:mod:`repro.logic.formulas` routes through :func:`lookup` / publication into
:data:`TABLE`, a single weak-valued mapping from structural keys to the
canonical node carrying that structure.  The consequences the rest of the
system relies on:

* **maximal sharing** — two structurally equal nodes built anywhere in the
  process are the *same object*, so ``==`` is a pointer comparison and
  ``hash`` is a cached int;
* **weakness** — the table holds no strong references, so nodes die with
  their last user and the table shrinks under GC (pinned only while memo
  tables below reference them);
* **thread safety** — lookups that hit take no lock; a constructor that
  misses publishes under a lock that re-checks the table, and returns
  whichever node won, so threads building the same new structure at once
  still share one object;
* **memo soundness** — the transformation memos (``subst``, ``nnf``,
  ``skolemize``, ``clausify``, ``Clause.substitute``) key on node objects.
  Because keys hold strong references to their nodes, a memo entry can never
  outlive the identity of its key (no stale ``id()`` reuse).

:func:`structural_reference` turns every memo *off* (the constructors still
intern — that is the data representation, not an optimization) so tests can
re-run a whole suite against the unmemoized pipeline and assert byte-identical
output.  See docs/TERMS.md.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: key -> canonical node.  Keys are per-class-tagged structural tuples (see
#: the ``__new__`` of each node class); values are the nodes themselves.
TABLE: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

# Reading through the public WeakValueDictionary API costs an extra method
# call on the hottest path in the system (every constructor).  The ``data``
# dict of key -> KeyedRef has been stable across every supported CPython;
# fall back to the public API if it ever disappears.
try:
    _DATA = TABLE.data  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - future-proofing
    _DATA = None


def lookup(key: tuple) -> Optional[object]:
    """Return the live canonical node for ``key``, or None."""
    if _DATA is not None:
        ref = _DATA.get(key)
        if ref is not None:
            return ref()  # may be None if collected but not yet swept
        return None
    return TABLE.get(key)  # pragma: no cover


#: Serialises publication only: a constructor that misses in :func:`lookup`
#: re-checks under it, so two threads building the same new node agree on
#: one canonical object.  Hits never take it.
_PUBLISH_LOCK = threading.Lock()


def publish(key: tuple, node: object) -> object:
    """Make ``node`` the canonical bearer of ``key`` unless another thread
    published one first; returns the canonical node."""
    with _PUBLISH_LOCK:
        if _DATA is not None:
            ref = _DATA.get(key)  # lookup(), inlined: this runs on every miss
            winner = ref() if ref is not None else None
        else:  # pragma: no cover
            winner = TABLE.get(key)
        if winner is None:
            TABLE[key] = node
            return node
    return winner


def table_size() -> int:
    """Number of live interned nodes."""
    return len(TABLE)


class InternStats:
    """Process-global counters for interning and the pipeline memos.

    ``snapshot()``/``delta()`` let a caller (the prover's search loop)
    attribute counter movement to one run without resetting global state.
    """

    _FIELDS = (
        "term_hits",
        "term_misses",
        "formula_hits",
        "formula_misses",
        "free_vars_hits",
        "subst_hits",
        "subst_misses",
        "clause_subst_hits",
        "clause_subst_misses",
        "nnf_hits",
        "nnf_misses",
        "skolem_hits",
        "skolem_misses",
        "clausify_hits",
        "clausify_misses",
    )

    __slots__ = _FIELDS

    def __init__(self) -> None:
        for f in self._FIELDS:
            setattr(self, f, 0)

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def delta(self, mark: Tuple[int, ...]) -> Dict[str, int]:
        return {
            f: getattr(self, f) - before
            for f, before in zip(self._FIELDS, mark)
        }

    def summary(self) -> str:
        """One-line global view (used by ``--prover-stats``)."""
        ih = self.term_hits + self.formula_hits
        im = self.term_misses + self.formula_misses
        sh = self.subst_hits + self.clause_subst_hits
        sm = self.subst_misses + self.clause_subst_misses
        ph = self.nnf_hits + self.skolem_hits + self.clausify_hits
        pm = self.nnf_misses + self.skolem_misses + self.clausify_misses

        def rate(h: int, m: int) -> str:
            t = h + m
            return f"{100.0 * h / t:.1f}% ({h:,}/{t:,})" if t else "-"

        return (
            f"intern table: {table_size():,} live nodes; "
            f"constructor hits {rate(ih, im)}; "
            f"subst memo {rate(sh, sm)}; "
            f"pipeline memo {rate(ph, pm)}; "
            f"free-vars cache hits {self.free_vars_hits:,}"
        )


STATS = InternStats()

# ---------------------------------------------------------------------------
# Memo tables.
#
# Transformation memos register here so the reference mode (and tests) can
# clear them all at once.  Each is a plain dict, bounded by clear-on-overflow
# in its owner; keys strongly reference their nodes (see module docstring).
# ---------------------------------------------------------------------------

#: When False, every registered memo is bypassed (lookups miss, stores are
#: skipped).  The interning constructors are unaffected.
MEMO_ENABLED = True

_MEMOS: List[dict] = []


def register_memo(memo: dict) -> dict:
    """Register a transformation memo for global clearing; returns it."""
    _MEMOS.append(memo)
    return memo


def memoized(memo: dict, cap: int, key: object, compute: Callable[[], T]) -> T:
    """``compute()``, memoized in the registered ``memo`` under ``key``.

    The pattern every per-process memo outside the term pipeline follows:
    bypassed while :data:`MEMO_ENABLED` is off, at most ``cap`` entries
    (cleared on overflow — the daemon keys arbitrary client input), an
    unhashable key computes with no memo, and a call that raises stores
    nothing.  Threads racing on one key, or on a clear, only cost a
    recompute."""
    if not MEMO_ENABLED:
        return compute()
    try:
        hit = memo.get(key)
    except TypeError:
        return compute()
    if hit is None:
        hit = compute()
        if len(memo) >= cap:
            memo.clear()
        memo[key] = hit
    return hit


def clear_memos() -> None:
    """Drop every registered memo entry (releases pinned nodes)."""
    for memo in _MEMOS:
        memo.clear()


@contextmanager
def structural_reference() -> Iterator[None]:
    """Run the block with every transformation memo disabled and empty.

    This is the pre-interning *semantics* mode: each ``subst``/``nnf``/
    ``skolemize``/``clausify`` call recomputes from structure, exactly as the
    original recursive definitions did.  Used by the byte-identity
    cross-check tests and the E8 benchmark.  Not thread-safe (flips a module
    global), like the rest of the prover.
    """
    global MEMO_ENABLED
    previous = MEMO_ENABLED
    MEMO_ENABLED = False
    clear_memos()
    try:
        yield
    finally:
        MEMO_ENABLED = previous
        clear_memos()
