"""Persistent, content-addressed cache of discharged proof obligations.

The paper's obligations are *non-inductive*: each is a closed first-order
formula whose validity depends only on (a) the formula itself, (b) the
background axiom set it is checked against, and (c) the checker-side case
analysis (the statement-kind split).  That makes each verdict perfectly
content-addressable: hash the normalized obligation together with the axiom
digest and the verdict can be replayed from disk without re-running the
prover.  Re-verifying an unchanged optimization suite then costs file reads,
not proof search — and editing one guard invalidates exactly the obligations
whose translated formulas changed.

Two subtleties:

* ``proved`` verdicts are sound under *any* resource limits, so a cache hit
  is accepted regardless of the prover configuration that produced it.
* ``unknown`` verdicts are resource-limit artifacts (a bigger timeout might
  prove the goal), so they are replayed only when the stored configuration
  fingerprint matches the requesting one.

The store behind the verdicts is tiered (docs/CACHING.md):

* **L0** — a per-process in-memory map.  Every lookup lands here first.
* **L1** — a sharded on-disk CAS (:mod:`repro.verify.cas`):
  ``objects/<key[:2]>/<key>.json``, one atomically-written file per
  verdict, so concurrent runs sharing a ``--cache-dir`` compose with
  per-verdict last-writer-wins.  It is the only on-disk form: a cache
  path that is a file (or ends in ``.json``) is refused with a hint.

Replay scoping (:meth:`CachedVerdict.replayable_for`) is enforced at
lookup time in :meth:`ProofCache.get`, *after* tier resolution — so a
verdict is judged by the same rules whether it came from memory or disk.
Corrupted files and foreign bytes are treated as absent,
never fatal: a crashed run can never poison later ones.  Checkers sharing
one cache prove each missed key once (single-flight claims, see
:class:`ProofCache`).
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.logic import intern as _intern
from repro.prover import ProverConfig
from repro.verify.cas import ShardedStore

#: Bump when the key derivation or entry layout changes, or when the
#: prover's search itself changes (cached counterexample contexts reflect
#: the search trajectory); old files are then ignored wholesale instead of
#: being misread.  3: digests are structural (DAG walk over interned nodes)
#: rather than printed forms.  4: verdicts carry the identity of the prover
#: that produced them (:data:`INTERNAL_IDENTITY`); stores written while an
#: external solver could also produce verdicts hold other identities, and
#: only the internal prover's verdicts replay.
SCHEMA_VERSION = 4

#: The identity stamped on every verdict the internal prover produces.  It
#: stays byte-identical to the one written when the prover still had a
#: selectable mode and external solvers were a backend choice, so stores
#: written then keep replaying.
INTERNAL_IDENTITY = "internal;mode=incremental"


def check_cache_dir(path: Union[str, os.PathLike]) -> Path:
    """``path`` as a cache directory, or ValueError with a one-line hint.

    The sharded store is the only on-disk form, so a path naming a file,
    or a ``.json`` path that reads as one, is refused rather than silently
    turned into an empty store beside what the caller meant."""
    path = Path(path)
    if path.suffix == ".json" or path.is_file():
        raise ValueError(
            f"proof cache location {str(path)!r} is a file or .json path; "
            f"pass a directory (verdicts live under DIR/objects/)"
        )
    return path


def config_fingerprint(
    config: ProverConfig, hard_timeout_s: Optional[float] = None
) -> str:
    """The resource-limit identity of a prover configuration.

    Only limits that can turn ``proved`` into ``unknown`` participate.

    ``hard_timeout_s`` is the caller's per-obligation wall-clock limit
    (``VerifyOptions.obligation_timeout_s``) when one is set: a hard
    timeout manufactures ``unknown`` verdicts just like the prover's own
    limits do, so it must scope them — otherwise a run under a tiny hard
    timeout could store ``unknown``s that replay for runs under the
    default limit (in the daemon, one client poisoning every other)."""
    parts = [
        f"rounds={config.max_rounds}",
        f"instances={config.max_instances}",
        f"decisions={config.max_decisions}",
        f"timeout={config.timeout_s!r}",
    ]
    if hard_timeout_s is not None:
        parts.append(f"hard_timeout={float(hard_timeout_s)!r}")
    return ";".join(parts)


def _digest_update(h, obj, seen: Dict[int, int]) -> None:
    """Feed one term/formula into ``h`` as a canonical structural token
    stream over the shared DAG.

    With hash-consed nodes, structurally equal subtrees are the same object,
    so a preorder walk can emit a back-reference (``#index``) the second
    time it meets a node instead of re-serializing — the stream length is
    the number of *distinct* nodes, not the tree size.  The ``seen`` map is
    keyed by node identity; callers keep the nodes alive for the duration
    (they hold the axiom/obligation lists), so ids are stable.  The stream
    itself depends only on structure — identical digests across processes
    and runs."""
    stack = [obj]
    push = stack.append
    while stack:
        node = stack.pop()
        key = id(node)
        idx = seen.get(key)
        if idx is not None:
            h.update(b"#%d;" % idx)
            continue
        seen[key] = len(seen)
        t = node.__class__.__name__
        if t == "App":
            h.update(f"a:{node.fn}/{len(node.args)};".encode())
            stack.extend(reversed(node.args))
        elif t == "LVar":
            h.update(f"v:{node.name};".encode())
        elif t == "IntConst":
            h.update(f"i:{node.value};".encode())
        elif t == "Eq":
            h.update(b"=;")
            push(node.rhs)
            push(node.lhs)
        elif t == "Pred":
            h.update(f"p:{node.name}/{len(node.args)};".encode())
            stack.extend(reversed(node.args))
        elif t == "Not":
            h.update(b"~;")
            push(node.body)
        elif t == "And":
            h.update(b"&%d;" % len(node.parts))
            stack.extend(reversed(node.parts))
        elif t == "Or":
            h.update(b"|%d;" % len(node.parts))
            stack.extend(reversed(node.parts))
        elif t == "Implies":
            h.update(b"->;")
            push(node.conc)
            push(node.hyp)
        elif t == "Iff":
            h.update(b"<->;")
            push(node.rhs)
            push(node.lhs)
        elif t == "Forall":
            h.update(
                f"A:{','.join(node.vars)}/{len(node.triggers)};".encode()
            )
            push(node.body)
            for trig in reversed(node.triggers):
                stack.extend(reversed(trig))
        elif t == "Exists":
            h.update(f"E:{','.join(node.vars)};".encode())
            push(node.body)
        elif t == "Top":
            h.update(b"T;")
        elif t == "Bottom":
            h.update(b"F;")
        elif t == "Literal":
            h.update(b"l1;" if node.positive else b"l0;")
            push(node.atom)
        elif t == "Clause":
            h.update(
                f"c:{node.origin}/{len(node.literals)}/{len(node.triggers)};".encode()
            )
            for trig in reversed(node.triggers):
                stack.extend(reversed(trig))
            stack.extend(reversed(node.literals))
        else:
            # Foreign object (tests feed strings): fall back to repr.
            del seen[key]
            h.update(f"s:{node!r};".encode())


#: Memos of the two key derivations below.  Both are pure functions of
#: hash-consed nodes, which hash on a cached int and compare by identity,
#: so a hit is one dict probe and returns the digest a fresh walk computes;
#: keys are unchanged.  (An un-interned impostor compares structurally and
#: so gets its interned twin's key.)  A warm ``repro serve`` job otherwise
#: spends most of its time re-walking the same axioms and goals.  Both are
#: bounded, registered memos (:func:`repro.logic.intern.memoized`), so
#: ``clear_memos`` and ``structural_reference`` clear or bypass them.
_DIGEST_MEMO: Dict[tuple, str] = _intern.register_memo({})
_DIGEST_MEMO_MAX = 64
_KEY_MEMO: Dict[tuple, str] = _intern.register_memo({})
_KEY_MEMO_MAX = 1 << 14


def axioms_digest(axioms: Sequence[object], constructors: Sequence[str] = ()) -> str:
    """A stable digest of the background axiom set (plus constructor names).

    Structural (:func:`_digest_update`) over the interned axiom DAG, with
    sharing tracked across the whole set — the 196 background axioms share
    most of their subterms, so the digest reads each distinct node once.
    ``(origin, formula)`` pairs hash the formula only — renaming an axiom's
    origin tag does not change what is provable.  Memoized per process on
    exactly what the walk reads (:data:`_DIGEST_MEMO`)."""
    formulas = tuple(ax[1] if isinstance(ax, tuple) else ax for ax in axioms)
    ctors = tuple(sorted(constructors))

    def compute() -> str:
        h = hashlib.sha256()
        h.update(f"schema:{SCHEMA_VERSION}\n".encode())
        for name in ctors:
            h.update(f"ctor:{name}\n".encode())
        seen: Dict[int, int] = {}
        for ax in formulas:
            _digest_update(h, ax, seen)
            h.update(b"\n")
        return h.hexdigest()

    return _intern.memoized(_DIGEST_MEMO, _DIGEST_MEMO_MAX, (formulas, ctors), compute)


def obligation_key(obligation, axiom_digest: str) -> str:
    """Content hash of one obligation: goal, seeds, and kind-split shape.

    The obligation *name* (F1/B2/...) is deliberately excluded — two
    syntactically identical goals share one verdict no matter which pattern
    generated them.  Memoized per process on ``(goal, seeds, split_term,
    axiom_digest)`` (:data:`_KEY_MEMO`)."""
    goal = obligation.goal
    seeds = tuple(obligation.seeds)
    split_term = obligation.split_term

    def compute() -> str:
        from repro.verify import encode as E

        h = hashlib.sha256()
        h.update(f"schema:{SCHEMA_VERSION}\n".encode())
        h.update(f"axioms:{axiom_digest}\n".encode())
        seen: Dict[int, int] = {}
        h.update(b"goal:")
        _digest_update(h, goal, seen)
        h.update(b"\n")
        for seed in seeds:
            h.update(b"seed:")
            _digest_update(h, seed, seen)
            h.update(b"\n")
        if split_term is not None:
            # The checker-side case analysis is part of the proof's meaning:
            # record the term split over and the kind tags enumerated.
            h.update(b"split:")
            _digest_update(h, split_term, seen)
            for k in E.STMT_KINDS:
                _digest_update(h, k, seen)
            h.update(b"\n")
        return h.hexdigest()

    return _intern.memoized(
        _KEY_MEMO, _KEY_MEMO_MAX, (goal, seeds, split_term, axiom_digest), compute
    )


#: Identities whose ``proved`` verdicts replay under every configuration:
#: the internal prover's proofs are deterministic and sound under any
#: resource limits.
_UNIVERSAL_BACKEND_PREFIX = "internal"


@dataclass
class CachedVerdict:
    """One stored obligation outcome."""

    proved: bool
    elapsed_s: float
    context: List[str] = field(default_factory=list)
    config: str = ""
    #: identity of the prover that produced the verdict
    #: (:data:`INTERNAL_IDENTITY`; older stores may hold others).
    backend: str = "internal"

    def to_json(self) -> dict:
        return {
            "proved": self.proved,
            "elapsed_s": self.elapsed_s,
            "context": list(self.context),
            "config": self.config,
            "backend": self.backend,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CachedVerdict":
        """Parse one stored entry; ValueError/KeyError/TypeError when it is
        malformed (callers read those as absent).  ``proved`` must be a JSON
        boolean: L1 files are outside input, and truthiness would replay
        ``"false"`` or ``1`` as a proof."""
        proved = data["proved"]
        if not isinstance(proved, bool):
            raise ValueError(f"'proved' must be a boolean, got {proved!r}")
        return cls(
            proved=proved,
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            context=[str(line) for line in data.get("context", [])],
            config=str(data.get("config", "")),
            backend=str(data.get("backend", "internal")),
        )

    @property
    def universal(self) -> bool:
        """An internal proof: it replays for every config."""
        return self.proved and self.backend.startswith(_UNIVERSAL_BACKEND_PREFIX)

    def replayable_for(self, config_fp: str) -> bool:
        """Whether this verdict answers a request under ``config_fp``.

        * internal ``proved`` verdicts are sound under any resource limits;
        * anything else replays only for the exact configuration that
          produced it, and only when the internal prover produced it:
          ``unknown`` verdicts are resource-limit artifacts, and verdicts
          an external solver wrote into an older store never replay."""
        if self.universal:
            return True
        return self.config == config_fp and self.backend == INTERNAL_IDENTITY

    def same_payload(self, other: "CachedVerdict") -> bool:
        """Semantic equality, ignoring incidental timing.

        Two verdicts with the same proved bit, context, scoping config and
        backend answer every future request identically — storing the
        second over the first would only churn the on-disk bytes."""
        return (
            self.proved == other.proved
            and self.context == other.context
            and self.config == other.config
            and self.backend == other.backend
        )


#: Counterexample contexts can be enormous (full assertion logs); store only
#: what the CLI would ever print.
_MAX_CONTEXT_LINES = 60


@dataclass
class CacheStats:
    hits: int = 0
    #: the key is absent from every tier
    misses: int = 0
    #: an entry exists but is not replayable for this config (an
    #: ``unknown`` under different limits, or an external solver's verdict)
    stale: int = 0
    stores: int = 0
    #: missed keys claimed for a proof search (single flight)
    claims: int = 0
    #: :meth:`ProofCache.claim` calls that won at least one key; each is one
    #: dispatch of its keys to the prover
    claim_batches: int = 0
    #: misses answered by another checker's search after waiting on its claim
    coalesced: int = 0

    def __str__(self) -> str:
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.stale} stale, {self.stores} store(s)")


class ProofCache:
    """The tiered verdict store keyed by :func:`obligation_key`.

    ``path`` is the on-disk (L1) directory — the sharded CAS — or ``None``
    for memory-only (the L0 map, nothing persisted).  A path naming a file
    is refused (:func:`check_cache_dir`).

    Instances are thread-safe: the service daemon shares one cache across
    concurrent job threads, so every public operation takes the instance
    lock (an ``RLock`` — the internal ``_lookup`` nesting stays
    re-entrant).  Single-threaded callers pay one uncontended acquire per
    call.

    Concurrent checkers dedupe their searches through claims (single
    flight), scoped by ``(key, config_fp)`` — the identity a verdict is
    replayed under:

    * :meth:`claim` splits missed keys into the caller's (it must prove
      them) and those another checker is already proving;
    * :meth:`settle` waits for the latter claims, then re-runs :meth:`get`,
      so a waiter gets the same replay scoping (and its own obligation
      names) as any cache hit; keys still unanswered — the claimant failed,
      or its verdict does not replay here — are the waiter's to claim;
    * :meth:`put` releases the claim it answers, and :meth:`release` (a
      ``finally`` on the caller's error path) every claim left.

    A claim only saves work: releasing one early can cost a second search,
    never a wrong verdict, because every answer still goes through
    :meth:`get`."""

    def __init__(self, path: Union[str, os.PathLike, None] = None) -> None:
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: Dict[str, CachedVerdict] = {}  # L0
        self._store: Optional[ShardedStore] = None  # L1
        self._dirty: Set[str] = set()  # locally produced, pending L1 write
        #: open claims: scope (key, config_fp) -> set on release
        self._claims: Dict[Tuple[str, str], threading.Event] = {}
        if path is not None:
            self._store = ShardedStore(check_cache_dir(path), SCHEMA_VERSION)

    # -- persistence ---------------------------------------------------------

    def save(self) -> None:
        """Persist pending verdicts to L1.

        Each pending verdict is one atomic file write — no whole-store
        rewrite, nothing another run wrote is touched."""
        with self._lock:
            if self._store is not None:
                for key in sorted(self._dirty):
                    self._store.put(key, self._entries[key].to_json())
            self._dirty.clear()

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            if self._store is not None:
                keys = set(self._store.keys())
                keys.update(self._entries)
                return len(keys)
            return len(self._entries)

    def location(self) -> str:
        """Human-readable description of the store."""
        return str(self._store.root) if self._store is not None else "<memory>"

    def _lookup(self, key: str) -> Optional[CachedVerdict]:
        """Resolve L0 then L1 (filling L0); no stats."""
        entry = self._entries.get(key)
        if entry is None and self._store is not None:
            raw = self._store.get(key)
            if raw is not None:
                try:
                    entry = CachedVerdict.from_json(raw)
                except (KeyError, TypeError, ValueError):
                    entry = None
                if entry is not None:
                    self._entries[key] = entry
        return entry

    def get(self, key: str, config_fp: str) -> Optional[CachedVerdict]:
        """A replayable verdict from L0/L1, or None.

        Scoping (:meth:`CachedVerdict.replayable_for`) is applied here, on
        the resolved entry, identically for every tier it may have come
        from."""
        with self._lock:
            entry = self._lookup(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.replayable_for(config_fp):
                self.stats.hits += 1
                return entry
            self.stats.stale += 1
            return None

    def put(self, key: str, *, proved: bool, elapsed_s: float,
            context: Sequence[str] = (), config_fp: str = "") -> None:
        """Store the internal prover's verdict for ``key`` and release the
        caller's claim on it.

        A stored proof replays under every config, so only another proof
        replaces it: an ``unknown`` from a run under tighter limits would
        narrow who the key replays for, and later runs would prove it
        again."""
        entry = CachedVerdict(
            proved=proved,
            elapsed_s=elapsed_s,
            context=list(context)[:_MAX_CONTEXT_LINES],
            config=config_fp,
            backend=INTERNAL_IDENTITY,
        )
        with self._lock:
            self._release((key, config_fp))
            existing = self._lookup(key)
            if existing is not None and (
                existing.same_payload(entry)
                or (existing.universal and not entry.universal)
            ):
                # Identical verdict already stored: re-writing it would churn
                # bytes for no information; a universal proof is kept.
                return
            self._entries[key] = entry
            self._dirty.add(key)
            self.stats.stores += 1

    # -- single flight -------------------------------------------------------

    def claim(
        self, keys: Sequence[str], config_fp: str
    ) -> Tuple[List[str], List[str]]:
        """Split missed ``keys`` into ``(mine, theirs)`` under one scope.

        ``mine`` are now claimed by the caller, which must :meth:`put` or
        :meth:`release` each.  ``theirs`` are claimed by another checker,
        or were answered since the caller's :meth:`get`; pass them to
        :meth:`settle`.  The replay check runs under the same lock as
        :meth:`put`, so no verdict can land between a miss and a claim."""
        mine: List[str] = []
        theirs: List[str] = []
        with self._lock:
            for key in keys:
                scope = (key, config_fp)
                entry = self._lookup(key)
                if scope in self._claims or (
                    entry is not None and entry.replayable_for(config_fp)
                ):
                    theirs.append(key)
                else:
                    self._claims[scope] = threading.Event()
                    mine.append(key)
            self.stats.claims += len(mine)
            if mine:
                self.stats.claim_batches += 1
        return mine, theirs

    def settle(
        self, keys: Sequence[str], config_fp: str
    ) -> Dict[str, CachedVerdict]:
        """Wait out other checkers' claims on ``keys``, then :meth:`get`.

        Returns the keys that now replay; the rest are the caller's to
        claim again.  Callers hold no claims of their own while they wait,
        so waiting can never deadlock."""
        for key in keys:
            with self._lock:
                claim = self._claims.get((key, config_fp))
            if claim is not None:
                claim.wait()
        settled: Dict[str, CachedVerdict] = {}
        for key in keys:
            hit = self.get(key, config_fp)
            if hit is not None:
                settled[key] = hit
        with self._lock:
            self.stats.coalesced += len(settled)
        return settled

    def release(self, keys: Sequence[str], config_fp: str) -> None:
        """Drop the caller's claims on ``keys`` still open (the error path)."""
        with self._lock:
            for key in keys:
                self._release((key, config_fp))

    def _release(self, scope: Tuple[str, str]) -> None:
        claim = self._claims.pop(scope, None)
        if claim is not None:
            claim.set()

    def clear(self) -> None:
        with self._lock:
            self._entries = {}
            self._dirty.clear()
            if self._store is not None:
                self._store.clear()
