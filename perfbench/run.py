"""The repository benchmark: one command, checked answers, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``verify-cold``    prove the shipped suite plus the seeded-bug variants,
                     one fresh process and empty proof store per pass;
* ``engine-compile`` run every shipped optimization over seeded procedures;
* ``daemon-warm``    closed-loop verification jobs against ``repro serve``.

Every output is checked against a known answer.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` — with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics, each ``{"value", "unit"}``.  The line before it,
``details {...}``, carries provenance (git SHA or source digest, seed,
Python, nproc, load averages, prover kernel), sample counts, the error
rate and any failed check.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

import common
from daemon_load import daemon_warm
from engine_load import engine_compile
from verify_load import suite_names_error, verify_cold

#: Per-layer metrics: name -> unit.  Every traced run reports all of them;
#: a layer a workload does not exercise reads 0.
PER_LAYER = {
    "engine.analysis_s": "s", "engine.legal_s": "s", "engine.apply_s": "s",
    "engine.keeps_evals": "count", "engine.keeps_hit_ratio": "ratio",
    "engine.worklist_pops": "count", "engine.rewrites": "count",
    "engine.stmts_out_ratio": "ratio",
    "obligations.build_s": "s", "obligations.count": "count",
    "checker.init_s": "s",
    "cache.key_s": "s", "cache.get_s": "s", "cache.hits": "count",
    "cache.misses": "count", "cache.hit_ratio": "ratio",
    "cache.put_s": "s", "cache.save_s": "s", "cache.stores": "count",
    "encode.clausify_s": "s",
    "prover.proved_s": "s", "prover.refuted_s": "s", "prover.calls": "count",
    "prover.instances": "count", "prover.rounds": "count",
    "prover.decisions": "count", "prover.lit_evals": "count",
    "prover.bindings": "count", "prover.dedup_ratio": "ratio",
    "prover.struct_visits": "count",
    "jobs.queue_ms": "ms", "jobs.run_ms": "ms", "wire.encode_ms": "ms",
    "http.overhead_ms": "ms", "service.broker_dispatches": "count",
    "service.cache_hits": "count",
    "trace.overhead_ratio": "ratio", "trace.uncovered_share": "ratio",
}
END_TO_END = ("setup_s", "items_per_s", "latency_p50_ms", "latency_p90_ms",
              "peak_rss_mb", "success_rate")


WORKLOADS = {
    "verify-cold": verify_cold,
    "engine-compile": engine_compile,
    "daemon-warm": daemon_warm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so daemons and workers get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.WORK.mkdir(exist_ok=True)

    details = {"workload": args.workload, "trace": bool(args.trace),
               "provenance": common.provenance(args.seed)}
    tally = common.Tally()
    error = suite_names_error()
    tally.check(error is None, str(error))
    from repro.prover.core import ProverConfig
    from repro.prover.kernels import kernel_identity

    details["kernel"] = kernel_identity(ProverConfig().kernel)
    start = time.perf_counter()
    values = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace),
                                      tally, details)
    details["wall_s"] = time.perf_counter() - start

    if args.trace:
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        details["samples"] = {name: m["samples"] for name, m in values.items() if "samples" in m}
        metrics = {name: values[name] for name in END_TO_END if name in values}
        details["omitted"] = [name for name in END_TO_END if name not in values]
    common.emit(tally, metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
