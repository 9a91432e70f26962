"""E11 — the proof cache: cold vs. warm L1.

The cache's claim (docs/CACHING.md): re-verifying an unchanged suite from
a populated on-disk store (L1) replays every verdict with zero misses and
a canonical report byte-identical to proving from scratch.  This harness
measures both regimes over the full shipped suite:

* **cold** — empty L1: full proof search, every fresh verdict stored;
* **warm L1** — the sharded on-disk store populated by the cold run.
"""

import time

from repro.api import ProverOptions, VerifyOptions, verify_suite
from repro.verify.cache import SCHEMA_VERSION
from repro.verify.cas import ShardedStore

CONFIG = ProverOptions(timeout_s=120)


def _run(**kwargs):
    start = time.monotonic()
    suite = verify_suite(VerifyOptions(prover=CONFIG, **kwargs))
    return suite, time.monotonic() - start


def test_proof_cache(benchmark, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("proof-cache")
    cold, cold_s = _run(cache_dir=str(cache_dir))
    warm, warm_s = _run(cache_dir=str(cache_dir))

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert not cold.failures()
    assert warm.canonical() == cold.canonical()
    assert warm.cache.stats.misses == 0, "warm L1 run missed the cache"

    from _report import emit

    rows = [
        {"regime": "cold (empty store)", "seconds": round(cold_s, 3),
         "misses": cold.cache.stats.misses, "stores": cold.cache.stats.stores},
        {"regime": "warm L1 (local store)", "seconds": round(warm_s, 3),
         "misses": warm.cache.stats.misses, "stores": warm.cache.stats.stores},
    ]
    lines = [
        "=== E11: proof cache — cold vs. warm L1 ===",
        f"{'regime':24s} {'time':>9s} {'misses':>7s} {'stores':>7s}",
    ]
    for row in rows:
        lines.append(f"{row['regime']:24s} {row['seconds']:8.2f}s "
                     f"{row['misses']:7d} {row['stores']:7d}")
    objects = ShardedStore(cache_dir, SCHEMA_VERSION).count()
    lines.append(
        f"store: {objects} object(s); canonical reports byte-identical "
        f"across both regimes"
    )
    emit(
        "E11_cache",
        "\n".join(lines),
        rows=rows,
        config={"prover_timeout_s": CONFIG.timeout_s,
                "suite": "full shipped suite"},
    )
