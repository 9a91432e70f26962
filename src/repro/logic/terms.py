"""First-order terms, hash-consed.

A term is an application ``App(fn, args)``, an integer literal
``IntConst(v)``, or a logic variable ``LVar(name)``.  Ground terms contain no
logic variables.  Nullary applications play the role of uninterpreted
constants (including the Skolem constants introduced when obligations are
negated).

Construction interns: structurally equal terms built anywhere in the process
are the *same object* (see :mod:`repro.logic.intern` and docs/TERMS.md), so

* ``==`` is an identity test with a structural fallback for nodes that
  bypassed the constructors (none are produced here; pickle/deepcopy both
  route through ``__reduce__`` and re-intern);
* ``hash(t)``, ``free_vars(t)``, ``term_size(t)`` and ``str(t)`` are cached
  per node — O(1) after the node exists;
* :func:`subst` prunes on cached free-variable sets and memoizes per
  (node, binding) pair.

The public API (classes, constructors, helper functions) is unchanged from
the original frozen-dataclass implementation, which survives as the
executable specification in :mod:`repro.logic.reference`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple, Union

from repro.logic import intern as _intern
from repro.logic.intern import STATS as _STATS, lookup as _lookup, publish as _publish

_EMPTY_FVS: FrozenSet[str] = frozenset()
_setattr = object.__setattr__


class _Node:
    """Shared behaviour of interned nodes: frozen, identity-equal, cached."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable (interned node)"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable (interned node)"
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def _eq_fallback(self, other: object) -> bool:
        """Structural comparison for un-interned impostors.

        Everything built through the constructors is interned, so two live
        *interned* nodes are equal iff identical.  A node created behind the
        constructors' back (``object.__new__``, hand-rolled deserializers)
        still compares structurally rather than lying.
        """
        if getattr(self, "_interned", False) and getattr(other, "_interned", False):
            return False  # both canonical, not identical => not equal
        return self._struct_key() == other._struct_key()  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._eq_fallback(other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result


class LVar(_Node):
    """A logic variable, bound by a quantifier or free in a rewrite pattern."""

    __slots__ = ("name", "_hash", "_fvs", "_size", "_str", "_interned", "__weakref__")

    def __new__(cls, name: str) -> "LVar":
        key = ("V", name)
        self = _lookup(key)
        if self is not None:
            _STATS.term_hits += 1
            return self
        _STATS.term_misses += 1
        self = object.__new__(cls)
        _setattr(self, "name", name)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", frozenset((name,)))
        _setattr(self, "_size", 1)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("V", self.name)

    def __reduce__(self):
        return (LVar, (self.name,))

    def __repr__(self) -> str:
        return f"LVar(name={self.name!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"?{self.name}"
            _setattr(self, "_str", s)
        return s


class IntConst(_Node):
    """An integer literal.  Distinct literals denote distinct values."""

    __slots__ = ("value", "_hash", "_fvs", "_size", "_str", "_interned", "__weakref__")

    def __new__(cls, value: int) -> "IntConst":
        key = ("I", value)
        self = _lookup(key)
        if self is not None:
            _STATS.term_hits += 1
            return self
        _STATS.term_misses += 1
        self = object.__new__(cls)
        _setattr(self, "value", value)
        _setattr(self, "_hash", hash(key))
        _setattr(self, "_fvs", _EMPTY_FVS)
        _setattr(self, "_size", 1)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("I", self.value)

    def __reduce__(self):
        return (IntConst, (self.value,))

    def __repr__(self) -> str:
        return f"IntConst(value={self.value!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = str(self.value)
            _setattr(self, "_str", s)
        return s


class App(_Node):
    """Application of a function symbol to argument terms."""

    __slots__ = ("fn", "args", "_hash", "_fvs", "_size", "_str", "_interned", "__weakref__")

    def __new__(cls, fn: str, args: Tuple["Term", ...] = ()) -> "App":
        if type(args) is not tuple:
            args = tuple(args)
        key = ("A", fn, args)
        self = _lookup(key)
        if self is not None:
            _STATS.term_hits += 1
            return self
        _STATS.term_misses += 1
        self = object.__new__(cls)
        _setattr(self, "fn", fn)
        _setattr(self, "args", args)
        _setattr(self, "_hash", hash(key))
        if args:
            fvs = _EMPTY_FVS
            size = 1
            for a in args:
                fvs |= a._fvs
                size += a._size
            _setattr(self, "_fvs", fvs)
            _setattr(self, "_size", size)
        else:
            _setattr(self, "_fvs", _EMPTY_FVS)
            _setattr(self, "_size", 1)
        _setattr(self, "_str", None)
        _setattr(self, "_interned", True)
        return _publish(key, self)

    def _struct_key(self) -> tuple:
        return ("A", self.fn, self.args)

    def __reduce__(self):
        return (App, (self.fn, self.args))

    def __repr__(self) -> str:
        return f"App(fn={self.fn!r}, args={self.args!r})"

    def __str__(self) -> str:
        s = self._str
        if s is None:
            if not self.args:
                s = self.fn
            else:
                s = f"{self.fn}({', '.join(map(str, self.args))})"
            _setattr(self, "_str", s)
        return s


Term = Union[App, IntConst, LVar]

Subst = Mapping[str, Term]


def mk(fn: str, *args: Term) -> App:
    """Shorthand application constructor."""
    return App(fn, tuple(args))


def free_vars(t: Term) -> FrozenSet[str]:
    """Names of the logic variables occurring in ``t`` (cached per node)."""
    _STATS.free_vars_hits += 1
    return t._fvs


def is_ground(t: Term) -> bool:
    """True if ``t`` contains no logic variables."""
    return not t._fvs


def term_size(t: Term) -> int:
    """Number of nodes in ``t`` (used for picking small representatives)."""
    return t._size


def term_str(t: Term) -> str:
    """The printed form of ``t``, computed once per node and cached."""
    return str(t)


# ---------------------------------------------------------------------------
# Substitution: free-variable pruning + per-(node, binding) memoization.
# ---------------------------------------------------------------------------

_SUBST_MEMO: Dict[tuple, "Term"] = _intern.register_memo({})
_SUBST_MEMO_MAX = 1 << 18


def binding_key(binding: Subst) -> tuple:
    """Canonical, hashable key for a substitution (sorted name/term pairs).

    Variable names are unique within a binding, so the sort never compares
    two terms.  The key strongly references its terms, pinning them for the
    lifetime of any memo entry keyed on it.
    """
    return tuple(sorted(binding.items()))


def subst(t: Term, binding: Subst) -> Term:
    """Apply a substitution (by variable name) to a term.

    Subterms whose (cached) free-variable sets are disjoint from the binding
    domain are returned as-is — under interning, "structurally unchanged"
    and "identical" coincide, so the prune is invisible to callers.
    """
    if type(t) is LVar:
        return binding.get(t.name, t)
    fvs = t._fvs
    if not fvs or not binding or fvs.isdisjoint(binding):
        return t
    return _subst_app(t, binding, binding_key(binding))


def subst_with_key(t: Term, binding: Subst, bkey: tuple) -> Term:
    """Like :func:`subst` with the binding key precomputed by the caller
    (one key per top-level operation, shared across every subterm)."""
    if type(t) is LVar:
        return binding.get(t.name, t)
    fvs = t._fvs
    if not fvs or fvs.isdisjoint(binding):
        return t
    return _subst_app(t, binding, bkey)


def _subst_app(t: App, binding: Subst, bkey: tuple) -> Term:
    # Precondition: t is an App whose free vars intersect the binding domain.
    memoize = _intern.MEMO_ENABLED
    if memoize:
        key = (t, bkey)
        hit = _SUBST_MEMO.get(key)
        if hit is not None:
            _STATS.subst_hits += 1
            return hit
    _STATS.subst_misses += 1
    out_args = []
    for a in t.args:
        if type(a) is LVar:
            out_args.append(binding.get(a.name, a))
        elif a._fvs and not a._fvs.isdisjoint(binding):
            out_args.append(_subst_app(a, binding, bkey))
        else:
            out_args.append(a)
    out = App(t.fn, tuple(out_args))
    if memoize:
        if len(_SUBST_MEMO) >= _SUBST_MEMO_MAX:
            _SUBST_MEMO.clear()
        _SUBST_MEMO[key] = out
    return out


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of ``t`` including ``t`` itself, outside-in."""
    yield t
    if type(t) is App:
        for a in t.args:
            yield from subterms(a)


def match(pattern: Term, target: Term, binding: Optional[Dict[str, Term]] = None) -> Optional[Dict[str, Term]]:
    """Syntactic one-way matching: find ``theta`` with ``pattern theta == target``.

    Purely syntactic (used in unit tests and a few non-E-graph contexts);
    the prover's E-matching lives in :mod:`repro.prover.ematch`.
    """
    binding = dict(binding or {})
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, LVar):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = t
            elif bound != t:
                return None
        elif isinstance(p, IntConst):
            if p != t:
                return None
        elif isinstance(p, App):
            if not isinstance(t, App) or t.fn != p.fn or len(t.args) != len(p.args):
                return None
            stack.extend(zip(p.args, t.args))
    return binding
