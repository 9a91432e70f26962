"""E1 — per-optimization proof-discharge times (paper section 5.1).

Paper: "On a modern workstation, the time taken by Simplify to discharge
the optimization-specific obligations for these optimizations ranges from 3
to 104 seconds, with an average of 28 seconds."

This harness regenerates the same table for our prover: one row per shipped
optimization/analysis, the time to discharge all of its obligations, plus
the range/average summary line.  Absolute numbers differ (different prover,
different machine, three decades later); the *shape* should hold: folding
rules are near-instant, forward dataflow patterns cheap, backward patterns
and pointer-dependent proofs the most expensive.

Each row is discharged cold against its own empty proof cache, so a row's
time does not depend on which rows ran before it (obligations shared
between items are proved once per item).  A separate pass proves the whole
suite through one shared cache — the suite total ``repro verify`` pays
cold — and a final pass replays every item against its populated cache,
so the E1 table also reports the warm, content-addressed replay time per
item (docs/VERIFYING.md).
"""

import time

import pytest

from repro.prover import ProverConfig
from repro.api import VerifyOptions
from repro.verify import SoundnessChecker
from repro.opts import ALL_OPTIMIZATIONS, taintedness_analysis

_RESULTS = {}
_WARM = {}
_SUITE = {}

_ITEMS = [taintedness_analysis] + list(ALL_OPTIMIZATIONS)


def _check(checker, item):
    if item is taintedness_analysis:
        return checker.check_analysis(item)
    return checker.check_optimization(item)


def _cached_checker(cache_dir):
    return SoundnessChecker(
        config=ProverConfig(timeout_s=120),
        options=VerifyOptions(cache_dir=str(cache_dir)),
    )


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("proof-caches")


@pytest.mark.parametrize("opt", ALL_OPTIMIZATIONS, ids=lambda o: o.name)
def test_proof_time(benchmark, cache_root, opt):
    checker = _cached_checker(cache_root / opt.name)

    def discharge():
        return checker.check_optimization(opt)

    report = benchmark.pedantic(discharge, rounds=1, iterations=1)
    assert report.sound, report.summary()
    assert checker.cache.stats.misses > 0, "the row's cache was not cold"
    _RESULTS[opt.name] = report.elapsed_s


def test_analysis_proof_time(benchmark, cache_root):
    checker = _cached_checker(cache_root / taintedness_analysis.name)
    report = benchmark.pedantic(
        lambda: checker.check_analysis(taintedness_analysis),
        rounds=1,
        iterations=1,
    )
    assert report.sound
    _RESULTS[taintedness_analysis.name] = report.elapsed_s


def test_yy_suite_total(benchmark, tmp_path):
    """Every item, cold, through one shared cache (what ``repro verify``
    pays): obligations shared between items are proved once."""
    checker = _cached_checker(tmp_path / "shared")

    def suite():
        start = time.monotonic()
        for item in _ITEMS:
            assert _check(checker, item).sound
        _SUITE["cold_shared_s"] = time.monotonic() - start

    benchmark.pedantic(suite, rounds=1, iterations=1)


def test_yy_warm_replay(benchmark, cache_root):
    """Replays every row against its populated cache (a fresh checker, so
    nothing is in process memory — every verdict comes off disk)."""

    def replay():
        for item in _ITEMS:
            if item.name not in _RESULTS:
                continue
            warm = _cached_checker(cache_root / item.name)
            start = time.monotonic()
            report = _check(warm, item)
            _WARM[item.name] = time.monotonic() - start
            assert report.sound, report.summary()
            assert warm.cache.stats.misses == 0, f"{item.name}: warm replay missed"

    benchmark.pedantic(replay, rounds=1, iterations=1)


def test_zz_report(benchmark):
    """Emits the E1 table (runs last; name-ordered after the rows)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert _RESULTS
    from _report import emit

    lines = ["=== E1: obligation-discharge time per optimization ==="]
    lines.append(f"{'optimization':24s} {'cold':>8s} {'warm':>9s}")
    for name, seconds in sorted(_RESULTS.items(), key=lambda kv: kv[1]):
        warm = _WARM.get(name)
        warm_cell = f"{warm * 1000:7.1f}ms" if warm is not None else "      - "
        lines.append(f"{name:24s} {seconds:8.2f} {warm_cell}")
    times = list(_RESULTS.values())
    lines.append(
        f"range {min(times):.2f}s .. {max(times):.2f}s, "
        f"average {sum(times) / len(times):.2f}s over {len(times)} items"
    )
    if _SUITE:
        lines.append(
            f"suite total {_SUITE['cold_shared_s']:.2f}s cold through one "
            f"shared cache (vs. {sum(times):.2f}s summed per row)"
        )
    if _WARM:
        lines.append(
            f"warm replay total {sum(_WARM.values()):.3f}s "
            f"(vs. {sum(times):.2f}s cold)"
        )
    lines.append("paper (Simplify, 2003 workstation): range 3s .. 104s, average 28s")

    from repro.prover.kernels import kernel_identity

    rows = {
        "items": [
            {
                "name": name,
                "cold_s": round(seconds, 4),
                "warm_ms": (
                    round(_WARM[name] * 1000, 3) if name in _WARM else None
                ),
            }
            for name, seconds in sorted(_RESULTS.items())
        ],
        "suite_cold_shared_s": (
            round(_SUITE["cold_shared_s"], 4) if _SUITE else None
        ),
    }
    config = {
        "timeout_s": 120,
        "default_kernel": kernel_identity("flat"),
        "cold_rows_cached": False,
    }
    emit("E1_proof_times", "\n".join(lines), rows=rows, config=config)
