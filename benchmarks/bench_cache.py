"""E11 — the tiered proof cache: cold vs. warm L1 vs. warm L2-only.

The tentpole claim of the tiered cache (docs/CACHING.md): a machine that
has never verified the suite, but can reach a cache daemon another machine
fed, replays the entire suite in under two seconds and at most two HTTP
round trips — with a canonical report byte-identical to proving from
scratch.  This harness measures the three regimes over the full shipped
suite against an in-process ``repro serve`` daemon (its ``/v1/cache``
routes over its own ``--cache-dir`` store) on a loopback socket:

* **cold** — empty L1, no L2: full proof search;
* **warm L1** — sharded on-disk store populated by the cold run;
* **warm L2-only** — *no* local store at all; every verdict arrives over
  the wire in one batched suite-level multi-GET.
"""

import asyncio
import threading
import time

from repro.api import ProverOptions, VerifyOptions, verify_suite
from repro.service import ServiceServer

CONFIG = ProverOptions(timeout_s=120)


def _run(**kwargs):
    start = time.monotonic()
    suite = verify_suite(VerifyOptions(prover=CONFIG, **kwargs))
    return suite, time.monotonic() - start


def _start_daemon(store_dir):
    """``repro --cache-dir STORE serve`` on an ephemeral loopback port."""
    server = ServiceServer(
        VerifyOptions(prover=CONFIG, cache_dir=str(store_dir)), port=0
    )
    started = threading.Event()

    async def main():
        await server.start()
        started.set()
        await server.serve_forever()

    thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    thread.start()
    assert started.wait(10), "daemon failed to start"
    return server, thread


def test_tiered_cache(benchmark, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("proof-cache")
    server, thread = _start_daemon(tmp_path_factory.mktemp("daemon-store"))
    url = f"http://127.0.0.1:{server.port}"
    try:
        cold, cold_s = _run(cache_dir=str(cache_dir), cache_url=url)
        warm_l1, warm_l1_s = _run(cache_dir=str(cache_dir))
        warm_l2, warm_l2_s = _run(cache_url=url)
    finally:
        server.request_stop()
        thread.join(timeout=30)
    assert not thread.is_alive(), "daemon did not stop"

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert not cold.failures()
    assert warm_l1.canonical() == cold.canonical()
    assert warm_l2.canonical() == cold.canonical()
    assert warm_l1.cache.stats.misses == 0, "warm L1 run missed the cache"
    assert warm_l2.cache.stats.misses == 0, "warm L2 run missed the cache"
    round_trips = warm_l2.cache.remote.stats.requests
    assert round_trips <= 2, f"warm L2 replay took {round_trips} round trips"
    assert warm_l2_s < 2.0, f"warm L2 replay took {warm_l2_s:.2f}s"

    from _report import emit

    rows = [
        {"regime": "cold (no cache)", "seconds": round(cold_s, 3),
         "round_trips": cold.cache.remote.stats.requests,
         "published": cold.cache.remote.stats.published},
        {"regime": "warm L1 (local store)", "seconds": round(warm_l1_s, 3),
         "round_trips": 0, "published": 0},
        {"regime": "warm L2-only (network)", "seconds": round(warm_l2_s, 3),
         "round_trips": round_trips,
         "published": warm_l2.cache.remote.stats.published},
    ]
    lines = [
        "=== E11: tiered proof cache — cold vs. warm L1 vs. warm L2-only ===",
        f"{'regime':24s} {'time':>9s} {'HTTP round trips':>17s}",
    ]
    for row in rows:
        lines.append(f"{row['regime']:24s} {row['seconds']:8.2f}s "
                     f"{row['round_trips']:17d}")
    lines.append(
        f"daemon store: {server.store.count()} object(s); canonical reports "
        f"byte-identical across all three regimes"
    )
    lines.append(
        f"warm L2-only budget: {round_trips} round trip(s) (<= 2), "
        f"{warm_l2_s:.2f}s (< 2s)"
    )
    emit(
        "E11_cache",
        "\n".join(lines),
        rows=rows,
        config={"prover_timeout_s": CONFIG.timeout_s,
                "suite": "full shipped suite",
                "daemon": "in-process repro serve, loopback, 1 shard"},
    )
