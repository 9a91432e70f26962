"""The persistent content-addressed proof cache (repro.verify.cache).

Covers the cache contract the parallel/cached checker relies on:

* miss-then-hit round trips through a real checker, with identical verdicts;
* key stability across *processes* (keys are content hashes of
  deterministically rendered formulas, not interned ids);
* invalidation when an optimization's guards, witness, or the background
  axiom set change (the key covers all proof inputs);
* ``unknown`` verdicts are config-scoped while ``proved`` ones are not,
  a stored internal proof is never evicted by a narrower verdict, and
  verdicts an external solver wrote into an older store never replay;
* the memoized axiom digest and obligation keys are the ones a fresh walk
  computes, bounded, and safe under racing threads;
* a corrupted or malformed verdict object reads as absent, never fatal,
  and a key that is not a plain object name touches no file;
* the sharded on-disk store (one file per verdict) merges concurrent
  writers instead of clobbering, and is the only on-disk form: a file
  path is refused with a one-line hint, at the API and the CLI.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cobalt.guards import GNot, GLabel
from repro.cobalt.labels import standard_registry
from repro.cobalt.patterns import VarPat
from repro.prover import ProverConfig
from repro.api import VerifyOptions
from repro.verify import ProofCache, SoundnessChecker
from repro.logic import intern
from repro.verify import cache as cache_mod
from repro.verify.cache import (
    SCHEMA_VERSION,
    CachedVerdict,
    axioms_digest,
    config_fingerprint,
    obligation_key,
)
from repro.verify.cas import ShardedStore
from repro.verify.encode import CONSTRUCTORS, all_axioms
from repro.verify.obligations import ObligationBuilder
from repro.opts import const_fold, const_prop

FAST = ProverConfig(timeout_s=60.0)


def _obligations(pattern):
    return ObligationBuilder(standard_registry()).forward_obligations(pattern)


def _cli(*argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True,
    )


@pytest.fixture()
def digest():
    return axioms_digest(all_axioms(), CONSTRUCTORS)


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cold = SoundnessChecker(
            config=FAST, options=VerifyOptions(cache_dir=str(tmp_path))
        )
        report_cold = cold.check_optimization(const_fold)
        assert report_cold.sound
        assert cold.cache.stats.hits == 0
        # One lookup, one search and one content-addressed object per
        # *distinct* verdict (two of constFold's obligations share a goal,
        # hence a key), sharded by key prefix.
        digest = axioms_digest(all_axioms(), CONSTRUCTORS)
        distinct = {obligation_key(ob, digest)
                    for ob in _obligations(const_fold.pattern)}
        assert cold.cache.stats.misses == len(distinct)
        assert cold.cache.stats.stores == len(distinct)
        objects = tmp_path / "objects"
        assert objects.is_dir()
        stored = list(objects.glob("*/*.json"))
        assert len(stored) == len(distinct)
        assert all(p.parent.name == p.stem[:2] for p in stored)

        warm = SoundnessChecker(
            config=FAST, options=VerifyOptions(cache_dir=str(tmp_path))
        )
        report_warm = warm.check_optimization(const_fold)
        assert report_warm.sound
        assert warm.cache.stats.misses == 0
        assert warm.cache.stats.hits == len(distinct)
        assert all(r.cached for r in report_warm.results)
        # Same verdicts, same canonical report, near-zero replay time.
        assert report_warm.canonical() == report_cold.canonical()
        assert report_warm.elapsed_s < report_cold.elapsed_s

    def test_cache_shared_across_checker_instances(self, tmp_path):
        cache = ProofCache(tmp_path)
        a = SoundnessChecker(config=FAST, proof_cache=cache)
        a.check_optimization(const_fold)
        b = SoundnessChecker(config=FAST, proof_cache=cache)
        report = b.check_optimization(const_fold)
        assert all(r.cached for r in report.results)


class TestKeyStability:
    def test_same_obligation_same_key(self, digest):
        keys1 = [obligation_key(ob, digest) for ob in _obligations(const_fold.pattern)]
        keys2 = [obligation_key(ob, digest) for ob in _obligations(const_fold.pattern)]
        assert keys1 == keys2

    def test_keys_stable_across_processes(self, digest):
        keys = [obligation_key(ob, digest) for ob in _obligations(const_prop.pattern)]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.verify.cache import axioms_digest, obligation_key\n"
            "from repro.verify.encode import CONSTRUCTORS, all_axioms\n"
            "from repro.verify.obligations import ObligationBuilder\n"
            "from repro.cobalt.labels import standard_registry\n"
            "from repro.opts import const_prop\n"
            "digest = axioms_digest(all_axioms(), CONSTRUCTORS)\n"
            "obs = ObligationBuilder(standard_registry())"
            ".forward_obligations(const_prop.pattern)\n"
            "print('\\n'.join(obligation_key(ob, digest) for ob in obs))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == keys


class TestInvalidation:
    def test_guard_change_invalidates_affected_obligations(self, digest):
        # The innocuous guard psi2 occurs in F2 only, so editing it must
        # invalidate F2 — and *only* F2: F1/F3 verdicts survive the edit.
        base = {ob.name: obligation_key(ob, digest)
                for ob in _obligations(const_prop.pattern)}
        weakened = dataclasses.replace(
            const_prop.pattern, psi2=GNot(GLabel("syntacticDef", (VarPat("Y"),)))
        )
        changed = {ob.name: obligation_key(ob, digest)
                   for ob in _obligations(weakened)}
        assert changed["F2"] != base["F2"]
        assert changed["F1"] == base["F1"]
        assert changed["F3"] == base["F3"]

    def test_witness_change_changes_keys(self, digest):
        from repro.cobalt.witness import TrueWitness

        base = _obligations(const_prop.pattern)
        rewitnessed = dataclasses.replace(const_prop.pattern, witness=TrueWitness())
        changed = _obligations(rewitnessed)
        assert {obligation_key(ob, digest) for ob in base}.isdisjoint(
            obligation_key(ob, digest) for ob in changed
        )

    def test_axiom_set_change_changes_keys(self):
        ob = _obligations(const_fold.pattern)[0]
        full = axioms_digest(all_axioms(), CONSTRUCTORS)
        truncated = axioms_digest(all_axioms()[:-1], CONSTRUCTORS)
        assert full != truncated
        assert obligation_key(ob, full) != obligation_key(ob, truncated)

    def test_name_does_not_participate(self, digest):
        ob = _obligations(const_fold.pattern)[0]
        renamed = dataclasses.replace(ob, name="somethingElse")
        assert obligation_key(ob, digest) == obligation_key(renamed, digest)


class TestConfigScoping:
    def test_unknown_only_replayed_under_same_config(self, tmp_path):
        cache = ProofCache(tmp_path)
        fp_small = config_fingerprint(ProverConfig(timeout_s=1.0))
        fp_big = config_fingerprint(ProverConfig(timeout_s=300.0))
        cache.put("k", proved=False, elapsed_s=1.0, context=["<resource limit>"],
                  config_fp=fp_small)
        assert cache.get("k", fp_big) is None  # a bigger budget might prove it
        hit = cache.get("k", fp_small)
        assert hit is not None and not hit.proved

    def test_proved_replayed_under_any_config(self, tmp_path):
        cache = ProofCache(tmp_path)
        fp_small = config_fingerprint(ProverConfig(timeout_s=1.0))
        fp_big = config_fingerprint(ProverConfig(timeout_s=300.0))
        cache.put("k", proved=True, elapsed_s=1.0, config_fp=fp_small)
        hit = cache.get("k", fp_big)
        assert hit is not None and hit.proved

    def test_hard_timeout_scopes_unknown_verdicts(self, tmp_path):
        # A hard-timeout ``unknown`` produced under a tiny per-obligation
        # wall-clock limit must never replay for a caller running under
        # the default limit — in the daemon, where one shared cache serves
        # every client, that would let one client's timeout flip another
        # client's obligations to unproved.
        cache = ProofCache(tmp_path)
        cfg = ProverConfig(timeout_s=60.0)
        fp_tiny = config_fingerprint(cfg, hard_timeout_s=0.001)
        fp_default = config_fingerprint(cfg)
        assert fp_tiny != fp_default
        cache.put("k", proved=False, elapsed_s=0.001,
                  context=["<hard timeout>"], config_fp=fp_tiny)
        assert cache.get("k", fp_default) is None
        hit = cache.get("k", fp_tiny)
        assert hit is not None and not hit.proved

    def test_checker_fingerprint_covers_hard_timeout(self):
        default = SoundnessChecker(config=FAST)
        limited = SoundnessChecker(
            config=FAST, options=VerifyOptions(obligation_timeout_s=0.5)
        )
        assert default._config_fp != limited._config_fp

    def test_internal_proofs_replay_under_any_config(self):
        proof = CachedVerdict(
            proved=True, elapsed_s=0.1, config="fp", backend="internal;mode=incremental"
        )
        assert proof.replayable_for("other-fp")

    def test_identified_external_proofs_never_replay(self):
        # Stores written while ``--backend smtlib|portfolio`` existed may
        # hold external solvers' verdicts: none of them is trusted now,
        # whatever solver build or portfolio produced them.
        for backend in ("smtlib;cmd=z3;version=4",
                        "portfolio(internal;mode=incremental|smtlib;cmd=z3;version=4)"):
            for proved in (True, False):
                verdict = CachedVerdict(
                    proved=proved, elapsed_s=0.1, config="fp", backend=backend
                )
                assert not verdict.replayable_for("fp"), (backend, proved)

    def test_unknown_version_external_proofs_never_replay(self):
        # An unidentified solver build was once trusted under its own
        # config; now it is not trusted under any.
        for proved in (True, False):
            verdict = CachedVerdict(
                proved=proved, elapsed_s=0.1, config="fp",
                backend="smtlib;cmd=mysolver;version=unknown",
            )
            assert not verdict.replayable_for("fp"), proved
            assert not verdict.replayable_for("fp2"), proved

    def test_failures_scoped_to_config_and_internal_identity(self):
        failure = CachedVerdict(
            proved=False, elapsed_s=0.1, config="fp", backend="internal;mode=incremental"
        )
        assert failure.replayable_for("fp")
        assert not failure.replayable_for("fp2")

    def test_external_verdict_on_disk_is_stale(self, tmp_path):
        store = ShardedStore(tmp_path, SCHEMA_VERSION)
        store.put("k", {"proved": True, "elapsed_s": 0.1, "context": [],
                        "config": "fp", "backend": "smtlib;cmd=z3;version=4"})
        cache = ProofCache(tmp_path)
        assert cache.get("k", "fp") is None
        assert cache.stats.stale == 1
        # ...and a fresh internal proof replaces it.
        cache.put("k", proved=True, elapsed_s=0.2, config_fp="fp")
        assert cache.get("k", "fp").backend == "internal;mode=incremental"

    def test_default_checker_fingerprint_unchanged(self):
        # Stored verdicts are scoped by this string: the default checker
        # must keep producing it, or every existing store goes stale.
        assert config_fingerprint(SoundnessChecker().config) == (
            "rounds=12;instances=20000;decisions=200000;timeout=300.0"
        )


class TestClaims:
    """Single flight: the first checker to miss a scoped key claims it."""

    def test_second_claim_under_same_scope_is_theirs(self):
        cache = ProofCache(None)
        assert cache.claim(["k1", "k2"], "fp") == (["k1", "k2"], [])
        assert cache.claim(["k2", "k3"], "fp") == (["k3"], ["k2"])
        # another config is another scope
        assert cache.claim(["k1"], "other") == (["k1"], [])
        assert (cache.stats.claims, cache.stats.claim_batches) == (4, 3)

    def test_put_settles_the_claim(self):
        cache = ProofCache(None)
        cache.claim(["k"], "fp")
        cache.put("k", proved=True, elapsed_s=0.1, config_fp="fp")
        assert cache.claim(["k"], "fp") == ([], ["k"])
        settled = cache.settle(["k"], "fp")
        assert settled["k"].proved
        assert cache.stats.coalesced == 1

    def test_released_claim_leaves_the_key_to_the_waiter(self):
        cache = ProofCache(None)
        cache.claim(["k"], "fp")
        cache.release(["k"], "fp")
        assert cache.settle(["k"], "fp") == {}
        assert cache.claim(["k"], "fp") == (["k"], [])
        assert cache.stats.coalesced == 0

    def test_unreplayable_verdict_does_not_settle(self):
        cache = ProofCache(None)
        cache.put("k", proved=False, elapsed_s=0.1, config_fp="small")
        assert cache.claim(["k"], "big") == (["k"], [])


class TestStoreKeys:
    """The sharded store refuses every key that is not a plain object
    name, so no key reads, writes or deletes a file outside its root."""

    ENTRY = {"proved": True, "elapsed_s": 0.1, "context": [], "config": "",
             "backend": "internal"}

    @pytest.mark.parametrize(
        "key", ["../escape", "..", "a/b", "a.b", "", "k" * 129, "k\u00e9",
                None, 7],
    )
    def test_unsafe_key_is_refused(self, tmp_path, key):
        store = ShardedStore(tmp_path / "store", SCHEMA_VERSION)
        assert store.put(key, self.ENTRY) is False
        assert store.get(key) is None
        assert not store.has(key)
        assert store.delete(key) is False
        assert list(tmp_path.iterdir()) == []

    def test_escaping_key_never_reaches_the_file_it_names(self, tmp_path):
        store = ShardedStore(tmp_path / "store", SCHEMA_VERSION)
        outside = tmp_path / "escape.json"
        assert store.object_path("../escape").resolve() == outside.resolve()
        outside.write_text(json.dumps(
            {"schema": SCHEMA_VERSION, "entry": self.ENTRY}
        ))
        assert store.get("../escape") is None
        assert store.put("../escape", dict(self.ENTRY, proved=False)) is False
        assert store.delete("../escape") is False
        assert json.loads(outside.read_text())["entry"]["proved"] is True
        assert sorted(p.name for p in tmp_path.iterdir()) == ["escape.json"]


class TestRobustness:
    def test_corrupted_object_treated_as_absent(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("deadbeef", proved=True, elapsed_s=0.5)
        cache.save()
        obj = tmp_path / "objects" / "de" / "deadbeef.json"
        obj.write_text("{not json")
        fresh = ProofCache(tmp_path)
        assert fresh.get("deadbeef", "") is None
        assert fresh.stats.misses == 1

    @staticmethod
    def _write_object(root, schema=SCHEMA_VERSION, proved=True):
        obj = root / "objects" / "aa" / "aa0001.json"
        obj.parent.mkdir(parents=True)
        obj.write_text(json.dumps({
            "schema": schema,
            "entry": {"proved": proved, "elapsed_s": 0.1, "context": [],
                      "config": "", "backend": "internal"},
        }))

    def test_wrong_schema_ignored(self, tmp_path):
        self._write_object(tmp_path, schema=999)
        cache = ProofCache(tmp_path)
        assert cache.get("aa0001", "") is None
        assert cache.stats.misses == 1

    @pytest.mark.parametrize("proved", ["false", "true", 1, 0, None])
    def test_non_boolean_proved_reads_as_absent(self, tmp_path, proved):
        # Store files are outside input: only a JSON boolean is a
        # verdict, never a truthy string or number.
        self._write_object(tmp_path, proved=proved)
        cache = ProofCache(tmp_path)
        assert cache.get("aa0001", "") is None
        assert cache.stats.misses == 1

    def test_missing_directory_created_on_save(self, tmp_path):
        root = tmp_path / "deep" / "nested"
        cache = ProofCache(root)
        cache.put("k", proved=True, elapsed_s=0.1)
        cache.save()
        assert (root / "objects" / "k" / "k.json").exists()
        assert len(ProofCache(root)) == 1

    def test_save_without_changes_is_noop(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.save()
        assert not (tmp_path / "objects").exists()

    def test_json_path_rejected_with_hint(self, tmp_path):
        # A .json path is refused with one line pointing at a directory,
        # not silently made into a store.
        with pytest.raises(ValueError, match="pass a directory") as err:
            ProofCache(tmp_path / "verdicts.json")
        assert "\n" not in str(err.value)
        assert not (tmp_path / "verdicts.json").exists()
        out = _cli("--cache-dir", str(tmp_path / "verdicts.json"), "verify")
        assert out.returncode == 2
        assert "pass a directory" in out.stderr
        assert "Traceback" not in out.stderr

    def test_plain_file_rejected_with_hint(self, tmp_path):
        # ``--cache-dir some-existing-file`` must not crash trying to mkdir
        # over the file, nor take it as a cache: one line, exit 2.
        path = tmp_path / "cachefile"
        path.write_text("not json at all")
        with pytest.raises(ValueError, match="pass a directory"):
            ProofCache(path)
        out = _cli("--cache-dir", str(path), "verify")
        assert out.returncode == 2
        assert "pass a directory" in out.stderr
        assert "Traceback" not in out.stderr
        assert path.read_text() == "not json at all"

    def test_unwritable_location_degrades_to_warning(self, tmp_path, capsys):
        # Persisting into a location whose parent is a plain file cannot
        # succeed; verification results must survive anyway.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = ProofCache(blocker / "sub")  # parent path is a file
        cache.put("k", proved=True, elapsed_s=0.1)
        cache.save()  # must not raise
        assert "[proof-cache] not persisted" in capsys.readouterr().err


class TestConcurrentWriters:
    """Two caches over one directory must union, not clobber."""

    def test_cas_interleaved_saves_union(self, tmp_path):
        a = ProofCache(tmp_path)
        b = ProofCache(tmp_path)
        a.put("ka", proved=True, elapsed_s=0.1)
        b.put("kb", proved=True, elapsed_s=0.2)
        a.save()
        b.save()
        merged = ProofCache(tmp_path)
        assert merged.get("ka", "") is not None
        assert merged.get("kb", "") is not None


class TestIdempotentPut:
    def test_identical_put_skips_store(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("k", proved=True, elapsed_s=0.5)
        cache.save()
        obj = tmp_path / "objects" / "k" / "k.json"
        before = obj.stat().st_mtime_ns
        # Same verdict, different timing: semantically identical.
        cache.put("k", proved=True, elapsed_s=9.9)
        assert cache.stats.stores == 1
        cache.save()
        assert obj.stat().st_mtime_ns == before

    def test_changed_verdict_still_stored(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("k", proved=False, elapsed_s=0.5, config_fp="a")
        cache.put("k", proved=False, elapsed_s=0.5, config_fp="b")
        assert cache.stats.stores == 2
        assert cache.get("k", "b") is not None

    def test_unknown_does_not_replace_an_internal_proof(self):
        # A daemon client's tiny obligation timeout must not evict a proof
        # that replays for every config: later default-limit runs would
        # prove the key again.
        cache = ProofCache(None)
        cache.put("k", proved=True, elapsed_s=0.5, config_fp="default")
        cache.put("k", proved=False, elapsed_s=0.001, context=["<hard timeout>"],
                  config_fp="default;hard_timeout=0.001")
        hit = cache.get("k", "default")
        assert hit is not None and hit.proved
        assert cache.stats.stores == 1

    def test_proof_replaces_an_unknown(self):
        cache = ProofCache(None)
        cache.put("k", proved=False, elapsed_s=0.5, config_fp="a")
        cache.put("k", proved=True, elapsed_s=0.5, config_fp="b")
        hit = cache.get("k", "a")
        assert hit is not None and hit.proved


class TestStatsSplit:
    def test_absent_counts_as_miss(self, tmp_path):
        cache = ProofCache(tmp_path)
        assert cache.get("nope", "fp") is None
        assert (cache.stats.misses, cache.stats.stale) == (1, 0)

    def test_unreplayable_counts_as_stale(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("k", proved=False, elapsed_s=0.1, config_fp="small")
        assert cache.get("k", "big") is None
        assert (cache.stats.misses, cache.stats.stale) == (0, 1)
        assert "1 stale" in str(cache.stats)


def _suite_keys():
    from repro.opts import ALL_OPTIMIZATIONS
    from repro.opts.buggy import ALL_BUGGY

    return SoundnessChecker().suite_obligation_keys(
        optimizations=list(ALL_OPTIMIZATIONS) + list(ALL_BUGGY)
    )


def _impostor(node):
    """A structurally equal copy of ``node`` built behind the constructors."""
    cls = type(node)
    twin = object.__new__(cls)
    for name in cls.__slots__:
        if name != "__weakref__":
            object.__setattr__(twin, name, getattr(node, name))
    object.__setattr__(twin, "_interned", False)
    return twin


class TestKeyMemo:
    """Memoized digests and keys are the ones a fresh walk computes."""

    @pytest.fixture(autouse=True)
    def _fresh_memos(self):
        intern.clear_memos()
        yield
        intern.clear_memos()

    def test_suite_keys_match_unmemoized_keys(self):
        with intern.structural_reference():
            fresh = _suite_keys()
        assert len(fresh) > 100
        assert _suite_keys() == fresh  # memo misses, then stores
        assert cache_mod._KEY_MEMO
        assert _suite_keys() == fresh  # memo hits

    def test_axiom_digest_tracks_the_axiom_set(self):
        axioms = list(all_axioms())
        base = axioms_digest(axioms, CONSTRUCTORS)
        assert axioms_digest(axioms, CONSTRUCTORS) == base  # a memo hit
        swapped = [axioms[1], axioms[0]] + axioms[2:]
        variants = [
            (axioms + [("extra", axioms[0])], CONSTRUCTORS),
            (swapped, CONSTRUCTORS),
            (axioms, sorted(CONSTRUCTORS)[1:]),
        ]
        digests = [axioms_digest(a, c) for a, c in variants]
        assert base not in digests and len(set(digests)) == len(digests)
        with intern.structural_reference():
            assert [axioms_digest(a, c) for a, c in variants] == digests
            assert axioms_digest(axioms, CONSTRUCTORS) == base

    def test_key_tracks_seeds_and_split_after_a_hit(self, digest):
        ob = next(o for o in _obligations(const_prop.pattern)
                  if o.seeds and o.split_term is not None)
        key = obligation_key(ob, digest)
        assert obligation_key(ob, digest) == key  # a memo hit
        variants = [
            dataclasses.replace(ob, seeds=ob.seeds[:-1]),
            dataclasses.replace(ob, split_term=None),
            dataclasses.replace(ob, seeds=(), split_term=None),
        ]
        keys = [obligation_key(v, digest) for v in variants]
        assert key not in keys and len(set(keys)) == len(keys)
        with intern.structural_reference():
            assert [obligation_key(v, digest) for v in variants] == keys

    def test_impostor_goal_shares_its_twin_key(self, digest):
        ob = _obligations(const_prop.pattern)[0]
        twin = _impostor(ob.goal)
        assert twin is not ob.goal and twin == ob.goal
        fake = dataclasses.replace(ob, goal=twin)
        key = obligation_key(ob, digest)
        assert obligation_key(fake, digest) == key  # memo hit
        intern.clear_memos()
        assert obligation_key(fake, digest) == key  # fresh walk

    def test_unhashable_input_is_computed_unmemoized(self):
        axioms = [["not", "hashable"]]
        with intern.structural_reference():
            fresh = axioms_digest(axioms)
        assert axioms_digest(axioms) == fresh
        assert not cache_mod._DIGEST_MEMO

    def test_threads_racing_clears_get_the_serial_keys(self, monkeypatch):
        # Job threads share the memos; a tiny cap makes every thread clear
        # them under the others, which may cost recomputes, never a key.
        import threading

        expected = _suite_keys()
        monkeypatch.setattr(cache_mod, "_KEY_MEMO_MAX", 8)
        outcomes = []

        def work():
            outcomes.append(all(_suite_keys() == expected for _ in range(3)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert outcomes == [True] * 4

    def test_memos_are_bounded(self, monkeypatch, digest):
        monkeypatch.setattr(cache_mod, "_DIGEST_MEMO_MAX", 4)
        monkeypatch.setattr(cache_mod, "_KEY_MEMO_MAX", 4)
        ob = _obligations(const_fold.pattern)[0]
        for i in range(10):
            axioms_digest([f"axiom{i}"])
            obligation_key(ob, f"{digest}{i}")
            assert len(cache_mod._DIGEST_MEMO) <= 4
            assert len(cache_mod._KEY_MEMO) <= 4
