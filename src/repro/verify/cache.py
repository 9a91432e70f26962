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
* **L2** — optional ``repro serve`` daemons whose own ``--cache-dir``
  store is served under ``/v1/cache`` (client: :mod:`repro.verify.netcache`),
  consulted through one batched multi-GET (:meth:`ProofCache.prefetch`)
  and fed by write-behind publication of fresh proofs on
  :meth:`ProofCache.save`.  Strictly fail-open: any network fault falls
  back to L1/L0 silently.

Replay scoping (:meth:`CachedVerdict.replayable_for`) is enforced at
lookup time in :meth:`ProofCache.get`, *after* tier resolution — so a
verdict is judged by the same rules whether it came from memory, disk, or
the network.  Corrupted files and foreign bytes are treated as absent,
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
#: rather than printed forms.  4: verdicts carry the producing backend's
#: identity (backend family + solver command + solver version); verdicts
#: proved by an external solver replay only under the same identity.
SCHEMA_VERSION = 4


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


#: Backend identities whose ``proved`` verdicts are trusted by *every*
#: requesting backend: the in-process prover's proofs are deterministic and
#: carry no external-solver dependency.  External proofs are replayed only
#: under the exact producing identity (solver command + version).
_UNIVERSAL_BACKEND_PREFIX = "internal"


@dataclass
class CachedVerdict:
    """One stored obligation outcome."""

    proved: bool
    elapsed_s: float
    context: List[str] = field(default_factory=list)
    config: str = ""
    #: identity of the backend that produced the verdict (see
    #: :meth:`repro.prover.backends.base.ProverBackend.identity`).
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
        boolean: entries arrive from the network tier, and truthiness would
        replay ``"false"`` or ``1`` as a proof."""
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
        """An internal proof: it replays for every config and backend."""
        return self.proved and self.backend.startswith(_UNIVERSAL_BACKEND_PREFIX)

    def replayable_for(self, config_fp: str, backend: str) -> bool:
        """Whether this verdict answers a request under the given identity.

        * internal ``proved`` verdicts are sound under any resource limits
          and any requesting backend;
        * external ``proved`` verdicts additionally require the same
          backend identity (a different solver or version must re-prove);
          when the producing solver's build could not be identified
          (``version=unknown`` — a failed version probe), the identity is
          too weak to scope by, so the verdict is config-scoped like a
          failure: a *different* solver build at the same command would
          otherwise replay proofs it never produced;
        * ``unknown`` verdicts are resource-limit artifacts — they replay
          only for the exact configuration *and* backend that produced
          them."""
        if self.universal:
            return True
        if self.proved:
            # A portfolio identity embeds its legs' identities verbatim, so
            # substring containment is exactly "produced by one of my legs".
            identity_ok = self.backend == backend or (
                bool(self.backend) and self.backend in backend
            )
            if not identity_ok:
                return False
            if "version=unknown" in self.backend:
                return self.config == config_fp
            return True
        return self.config == config_fp and self.backend == backend

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
    #: an entry exists but is not replayable for this config/backend
    #: (an ``unknown`` under different limits, or a foreign solver's proof)
    stale: int = 0
    stores: int = 0
    #: verdicts pulled from the network tier (L2) by :meth:`ProofCache.prefetch`
    remote_hits: int = 0
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

    ``remote`` is an optional :class:`repro.verify.netcache.CacheClient`
    (L2): :meth:`prefetch` pulls misses in one batched multi-GET and
    :meth:`save` publishes fresh proofs write-behind.  Every network fault
    is swallowed — the cache accelerates, it never gates.

    Instances are thread-safe: the service daemon shares one cache across
    concurrent job threads, so every public operation takes the instance
    lock (an ``RLock`` — the internal ``_lookup`` nesting stays
    re-entrant).  Single-threaded callers pay one uncontended acquire per
    call.

    Concurrent checkers dedupe their searches through claims (single
    flight), scoped by ``(key, config_fp, backend)`` — the identity a
    verdict is replayed under:

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

    def __init__(self, path: Union[str, os.PathLike, None] = None, *,
                 remote: Optional[object] = None) -> None:
        self.stats = CacheStats()
        self.remote = remote
        self._lock = threading.RLock()
        #: serializes L2 round trips only — never held together with work
        #: that other threads' get/put would block on.  Ordering: _net_lock
        #: is taken first, _lock only inside it (or alone), never the
        #: reverse, so the pair cannot deadlock.
        self._net_lock = threading.Lock()
        self._entries: Dict[str, CachedVerdict] = {}  # L0
        self._store: Optional[ShardedStore] = None  # L1
        self._dirty: Set[str] = set()  # locally produced, pending L1 write
        self._fetched: Set[str] = set()  # pulled from L2, pending L1 write
        self._unpublished: Set[str] = set()  # proofs pending L2 publication
        self._remote_seen: Set[str] = set()  # keys already asked of L2
        #: open claims: scope (key, config_fp, backend) -> set on release
        self._claims: Dict[Tuple[str, str, str], threading.Event] = {}
        if path is not None:
            self._store = ShardedStore(check_cache_dir(path), SCHEMA_VERSION)

    # -- persistence ---------------------------------------------------------

    def save(self) -> None:
        """Persist pending verdicts to L1 and publish fresh proofs to L2.

        Each pending verdict is one atomic file write — no whole-store
        rewrite, nothing another run wrote is touched.  All network faults
        are swallowed."""
        with self._lock:
            if self._store is not None:
                for key in sorted(self._dirty | self._fetched):
                    self._store.put(key, self._entries[key].to_json())
            self._dirty.clear()
            self._fetched.clear()
        # Publication happens outside the instance lock for the same
        # reason prefetch releases it: a slow L2 multi-PUT must never
        # block other threads' get/put on the shared cache.
        self._flush_remote()

    def _flush_remote(self) -> None:
        """Write-behind publication: one batched multi-PUT of new proofs.

        The network call runs under the network lock only; the instance
        lock is taken just to snapshot and (on success) retire the batch,
        so concurrent get/put never wait on the round trip.  Keys put()
        while the publish is in flight stay queued for the next save."""
        remote = self.remote
        if remote is None or not remote.alive:
            return
        with self._net_lock:
            with self._lock:
                batch = {
                    key: self._entries[key].to_json()
                    for key in sorted(self._unpublished)
                    if key in self._entries
                }
            if not batch:
                return
            if remote.publish(batch):
                with self._lock:
                    self._unpublished -= set(batch)

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            if self._store is not None:
                keys = set(self._store.keys())
                keys.update(self._entries)
                return len(keys)
            return len(self._entries)

    @property
    def has_remote(self) -> bool:
        return self.remote is not None

    def location(self) -> str:
        """Human-readable description of the configured tiers."""
        parts = []
        if self._store is not None:
            parts.append(str(self._store.root))
        if self.remote is not None:
            parts.append(self.remote.describe())
        return " + ".join(parts) if parts else "<memory>"

    def _lookup(self, key: str) -> Optional[CachedVerdict]:
        """Resolve L0 then L1 (filling L0); no stats, no network."""
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

    def prefetch(self, keys: Sequence[str]) -> int:
        """Warm L0 with every resolvable key; one batched L2 multi-GET.

        Keys already resolved locally (or already asked of the network this
        process) cost nothing, so per-pattern prefetches after a suite-wide
        one never re-ask the daemon — a warm suite is one round trip.
        Returns the number of entries pulled from the network tier.

        The instance lock is *not* held across the network call: the daemon
        shares one cache across every job thread, so a slow L2 round trip
        (up to its configured timeout) must stall only overlapping
        prefetches, never another job's get/put.  Concurrent prefetches
        serialize on a dedicated network lock instead, and the second one
        re-checks after acquiring it — an overlapping prefetch waits for
        the in-flight round trip and then finds its keys resolved (or
        known-missing) locally, rather than duplicating the fetch."""
        with self._lock:
            missing = self._prefetch_missing(keys)
        if not missing:
            return 0
        with self._net_lock:
            with self._lock:
                # Re-check: the round trip we just waited for (or a racing
                # put) may have resolved some — or all — of our keys.
                remote = self.remote
                asked = sorted(set(self._prefetch_missing(missing)))
                if not asked:
                    return 0
                self._remote_seen.update(asked)
            try:
                fetched = remote.multi_get(asked)
            except Exception:
                return 0  # the network tier is fail-open, never fatal
            pulled = 0
            with self._lock:
                for key, raw in fetched.items():
                    if key in self._entries:
                        continue  # a racing put() wins over the fetch
                    try:
                        entry = CachedVerdict.from_json(raw)
                    except Exception:
                        continue  # a corrupt L2 entry is a miss, never an error
                    self._entries[key] = entry
                    self._fetched.add(key)  # read-through: persist on save
                    pulled += 1
                self.stats.remote_hits += pulled
            return pulled

    def _prefetch_missing(self, keys: Sequence[str]) -> List[str]:
        """Keys worth asking L2 for (caller holds the instance lock)."""
        if self.remote is None or not self.remote.alive:
            return []
        return [
            key
            for key in keys
            if self._lookup(key) is None and key not in self._remote_seen
        ]

    def get(
        self, key: str, config_fp: str, backend: str = "internal"
    ) -> Optional[CachedVerdict]:
        """A replayable verdict from L0/L1, or None.

        Scoping (:meth:`CachedVerdict.replayable_for`) is applied here, on
        the resolved entry, identically for every tier it may have come
        from.  The network is never consulted per-key — batch with
        :meth:`prefetch` first."""
        with self._lock:
            entry = self._lookup(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.replayable_for(config_fp, backend):
                self.stats.hits += 1
                return entry
            self.stats.stale += 1
            return None

    def put(self, key: str, *, proved: bool, elapsed_s: float,
            context: Sequence[str] = (), config_fp: str = "",
            backend: str = "internal") -> None:
        """Store a verdict for ``key`` and release the caller's claim on it.

        A stored internal proof replays under every config and backend, so
        only another internal proof replaces it: an ``unknown`` from a run
        under tighter limits (or an external solver's proof) would narrow
        who the key replays for, and later runs would prove it again."""
        entry = CachedVerdict(
            proved=proved,
            elapsed_s=elapsed_s,
            context=list(context)[:_MAX_CONTEXT_LINES],
            config=config_fp,
            backend=backend,
        )
        with self._lock:
            self._release((key, config_fp, backend))
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
            self._fetched.discard(key)
            self.stats.stores += 1
            if proved and self.remote is not None:
                self._unpublished.add(key)

    # -- single flight -------------------------------------------------------

    def claim(
        self, keys: Sequence[str], config_fp: str, backend: str = "internal"
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
                scope = (key, config_fp, backend)
                entry = self._lookup(key)
                if scope in self._claims or (
                    entry is not None and entry.replayable_for(config_fp, backend)
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
        self, keys: Sequence[str], config_fp: str, backend: str = "internal"
    ) -> Dict[str, CachedVerdict]:
        """Wait out other checkers' claims on ``keys``, then :meth:`get`.

        Returns the keys that now replay; the rest are the caller's to
        claim again.  Callers hold no claims of their own while they wait,
        so waiting can never deadlock."""
        for key in keys:
            with self._lock:
                claim = self._claims.get((key, config_fp, backend))
            if claim is not None:
                claim.wait()
        settled: Dict[str, CachedVerdict] = {}
        for key in keys:
            hit = self.get(key, config_fp, backend)
            if hit is not None:
                settled[key] = hit
        with self._lock:
            self.stats.coalesced += len(settled)
        return settled

    def release(
        self, keys: Sequence[str], config_fp: str, backend: str = "internal"
    ) -> None:
        """Drop the caller's claims on ``keys`` still open (the error path)."""
        with self._lock:
            for key in keys:
                self._release((key, config_fp, backend))

    def _release(self, scope: Tuple[str, str, str]) -> None:
        claim = self._claims.pop(scope, None)
        if claim is not None:
            claim.set()

    def clear(self) -> None:
        with self._lock:
            self._entries = {}
            self._dirty.clear()
            self._fetched.clear()
            self._unpublished.clear()
            if self._store is not None:
                self._store.clear()
