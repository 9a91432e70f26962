"""The ``verify-cold`` workload.

One *pass* builds a fresh :class:`SoundnessChecker` and runs the public
``verify_suite`` over the two shipped analyses and a seed-drawn order of
the shipped and seeded-bug optimizations.  Per-item latencies come from the
``progress`` callback: each item's time runs from the previous report (or
the start of ``verify_suite``) to its own.  A pass's time includes the
checker's construction.

Every pass runs in a fresh worker process (``worker.py``) against a
fresh, empty cache directory, as ``repro verify`` starts from empty
process-global state; the worker's start-up is set-up time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import common
from tracer import Tracer, install_verify_layers

#: Seconds of ``--seconds`` each cold pass stands for.
NOMINAL_PASS_S = 10.0

#: Per-pass layer counts that must repeat exactly for the same inputs.
DETERMINISTIC_COUNTS = (
    "obligations.count", "cache.stores",
    "prover.calls", "prover.instances", "prover.rounds", "prover.decisions",
    "prover.lit_evals", "prover.bindings", "prover.dedup_hits",
    "prover.struct_visits",
)


def resolve_items(analysis_names, optimization_names):
    """Suite objects for the given names (shipped and seeded-bug pools)."""
    from repro import opts
    from repro.opts.buggy import ALL_BUGGY

    analyses = {a.name: a for a in opts.ALL_ANALYSES}
    optimizations = {o.name: o for o in list(opts.ALL_OPTIMIZATIONS) + list(ALL_BUGGY)}
    return (
        [analyses[n] for n in analysis_names],
        [optimizations[n] for n in optimization_names],
    )


def suite_names_error() -> Optional[str]:
    """A mismatch between the program's suite and the known-answer lists."""
    from repro import opts
    from repro.opts.buggy import ALL_BUGGY

    got = (
        tuple(a.name for a in opts.ALL_ANALYSES),
        tuple(o.name for o in opts.ALL_OPTIMIZATIONS),
        tuple(o.name for o in ALL_BUGGY),
    )
    want = (common.SHIPPED_ANALYSES, common.SHIPPED_OPTIMIZATIONS,
            common.BUGGY_OPTIMIZATIONS)
    return None if got == want else f"suite differs from the known answers: {got}"


def run_pass(analysis_names, optimization_names, cache_dir, trace: bool) -> dict:
    """One verification pass; a JSON-able record of what it did."""
    from repro.api import VerifyOptions, verify_suite
    from repro.verify.checker import SoundnessChecker

    analyses, optimizations = resolve_items(analysis_names, optimization_names)
    tracer = Tracer()
    done: List[tuple] = []
    with tracer.installed(*([install_verify_layers] if trace else [])):
        start = time.perf_counter()
        checker = SoundnessChecker(options=VerifyOptions(cache_dir=cache_dir))
        suite_start = time.perf_counter()
        # Only a timestamp inside the timed region; the reports are read
        # after the pass.
        verify_suite(analyses=analyses, optimizations=optimizations,
                     progress=lambda report: done.append((time.perf_counter(), report)),
                     checker=checker)
        pass_s = time.perf_counter() - start
    items = []
    previous = suite_start
    for finished, report in done:
        items.append({
            "name": report.name,
            "sound": bool(report.sound),
            "failed": [r.obligation for r in report.failed_obligations()],
            "latency_s": finished - previous,
            "canonical": report.canonical(),
        })
        previous = finished
    stats = checker.cache.stats
    totals = tracer.totals()
    return {
        "items": items,
        "pass_s": pass_s,
        "cache": {"hits": stats.hits, "misses": stats.misses, "stores": stats.stores},
        "trace": {
            "seconds": dict(totals.seconds),
            "counts": dict(totals.counts),
            "covered_s": totals.covered_s,
        } if trace else None,
    }


def run_worker(job: dict) -> dict:
    """Run ``worker.py`` on ``job`` in a fresh interpreter; its record, with
    ``startup_s`` (spawn until the worker finished importing)."""
    job = dict(job, t_spawn=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(common.ROOT / "perfbench" / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        env=common.worker_env(), cwd=common.ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["startup_s"] = record["t_ready"] - job["t_spawn"]
    return record


def _check_items(record: dict, tally: common.Tally, count: bool) -> None:
    for item in record["items"]:
        error = common.verdict_error(item["name"], item["sound"], item["failed"])
        if count:
            tally.item(error)
        elif error is not None:
            tally.check(False, error)


def _layer_values(trace: dict, pass_s: float) -> Dict[str, float]:
    """Per-pass layer metrics from one traced pass."""
    seconds, counts = trace["seconds"], trace["counts"]
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    bindings = counts.get("prover.bindings", 0)
    values = {
        "obligations.build_s": seconds.get("obligations.build", 0.0),
        "obligations.count": counts.get("obligations.count", 0),
        "checker.init_s": seconds.get("checker.init", 0.0),
        "cache.key_s": seconds.get("cache.key", 0.0),
        "cache.get_s": seconds.get("cache.get", 0.0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.put_s": seconds.get("cache.put", 0.0),
        "cache.save_s": seconds.get("cache.save", 0.0),
        "cache.stores": counts.get("cache.stores", 0),
        "encode.clausify_s": seconds.get("encode.clausify", 0.0),
        "prover.proved_s": seconds.get("prover.proved_s", 0.0),
        "prover.refuted_s": seconds.get("prover.refuted_s", 0.0),
        "prover.dedup_ratio": counts.get("prover.dedup_hits", 0) / bindings if bindings else 0.0,
        "trace.uncovered_share": max(0.0, 1.0 - trace["covered_s"] / pass_s),
    }
    for name in DETERMINISTIC_COUNTS:
        if name.startswith("prover."):
            values[name] = counts.get(name, 0)
    return values


def _mean_layers(records: List[dict]) -> Dict[str, float]:
    """Layer metrics per pass, averaged over traced passes (their counts
    are checked equal, so counts stay whole numbers)."""
    rows = [_layer_values(r["trace"], r["pass_s"]) for r in records]
    return {
        name: value if isinstance(value, int) else sum(row[name] for row in rows) / len(rows)
        for name, value in rows[0].items()
    }


def _items_per_s(records: List[dict]) -> float:
    return sum(len(r["items"]) for r in records) / sum(r["pass_s"] for r in records)


def _counts_of(trace: dict) -> Dict[str, int]:
    return {name: trace["counts"].get(name, 0) for name in DETERMINISTIC_COUNTS}


def _summary(records: List[dict], tally: common.Tally) -> Dict[str, dict]:
    latencies = [i["latency_s"] for r in records for i in r["items"]]
    metrics = {"items_per_s": {"value": _items_per_s(records), "unit": "1/s"}}
    metrics.update(common.latency_metrics(latencies))
    metrics["success_rate"] = {"value": 1.0 - tally.error_rate, "unit": "ratio"}
    return metrics


def _pass_lists(seed: int, pass_index: int = 0):
    return list(common.SHIPPED_ANALYSES), common.cold_item_order(seed, pass_index)


def _canonicals(record: dict) -> Dict[str, str]:
    """Each item's canonical report (order-independent), by name."""
    return {item["name"]: item["canonical"] for item in record["items"]}


def verify_cold(seed: int, seconds: float, trace: bool, tally: common.Tally, details: dict):
    records: List[dict] = []

    def one_pass(traced: bool, pass_index: int) -> dict:
        analyses, optimizations = _pass_lists(seed, pass_index)
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=common.WORK)
        try:
            record = run_worker({"mode": "pass", "analyses": analyses,
                                 "optimizations": optimizations,
                                 "cache_dir": cache_dir, "trace": traced})
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        _check_items(record, tally, count=True)
        if records:
            tally.check(_canonicals(record) == _canonicals(records[0]),
                        "cold passes disagree on a canonical report")
        records.append(record)
        return record

    if not trace:
        # A fixed number of passes for the run length (never fewer than a
        # p90 needs), so the work does not depend on the machine's speed.
        per_pass = len(common.SHIPPED_ANALYSES + common.SHIPPED_OPTIMIZATIONS
                       + common.BUGGY_OPTIMIZATIONS)
        passes = max(math.ceil(seconds / NOMINAL_PASS_S),
                     math.ceil(common.min_samples_for(0.9) / per_pass))
        for index in range(passes):
            one_pass(False, index)
        metrics = {"setup_s": {
            "value": common.median([r["startup_s"] for r in records]), "unit": "s"}}
        metrics.update(_summary(records, tally))
        metrics["peak_rss_mb"] = {"value": max(r["rss_mb"] for r in records), "unit": "MB"}
        details["passes"] = len(records)
        return metrics

    # Traced: the same pass (one order) traced, untraced, traced; the two
    # traced passes must agree on every count.
    traced = [one_pass(True, 0)]
    plain = one_pass(False, 0)
    traced.append(one_pass(True, 0))
    counts = [_counts_of(r["trace"]) for r in traced]
    tally.check(counts[0] == counts[1], f"traced cold passes disagree: {counts}")
    values = _mean_layers(traced)
    values["trace.overhead_ratio"] = _items_per_s(traced) / _items_per_s([plain])
    details["deterministic_counts"] = counts[0]
    return values

