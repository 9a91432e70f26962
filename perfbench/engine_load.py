"""The ``engine-compile`` workload: Cobalt rules as a compiler runs them.

One engine per run executes ``run_pipeline(ALL_OPTIMIZATIONS, proc)`` over
a stream of seeded ``ProgramGenerator`` procedures.  The stream comes in
blocks holding every class of ``common.ENGINE_CLASSES`` once (body size,
pointers or not, sparse or dense forward branches).  Before a procedure is
compiled its outcomes under the ``il.interp`` interpreter are recorded on
seeded arguments; afterwards every argument on which the original returned
a value must make the compiled procedure return the same value.

A run compiles a fixed number of blocks, ``BLOCKS_PER_SECOND`` per second
of ``--seconds``.  Preparing a block (generation plus reference runs) is
set-up work done between timed compilations; ``setup_s`` is the engine's
construction plus the median block preparation.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import common
from tracer import Tracer, install_engine_layers

#: Procedures in the traced prefix that per-layer metrics are reported over.
TRACED_PREFIX = 48
#: Blocks of procedures compiled per second of ``--seconds``.  The amount
#: of work is fixed rather than timed, so the engine's memo tables (and the
#: peak memory they set) do not depend on how fast the machine ran.
BLOCKS_PER_SECOND = 1.0

#: EngineStats counters reported (and required to repeat exactly).
ENGINE_COUNTERS = ("keeps_evals", "keeps_hits", "worklist_pops", "transformations")


def _ir_size(proc) -> int:
    """Statements other than ``skip`` (removal rewrites to ``skip``)."""
    from repro.il.ast import Skip

    return sum(1 for stmt in proc.stmts if not isinstance(stmt, Skip))


class ProcStream:
    """The seeded procedure stream with each procedure's reference outcomes."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.prep_s: List[float] = []
        self._cache: List[Tuple[object, List[int], list]] = []

    def _prepare_block(self, block: int) -> None:
        from repro.il.generator import GeneratorConfig, ProgramGenerator

        start = time.perf_counter()
        for spec in common.engine_block_specs(self.seed, block):
            config = GeneratorConfig(
                num_stmts=spec["num_stmts"],
                num_branches=spec["num_branches"],
                allow_pointers=spec["allow_pointers"],
            )
            proc = ProgramGenerator(config, seed=spec["gen_seed"]).gen_proc()
            self._cache.append((proc, spec["args"], outcomes(proc, spec["args"])))
        self.prep_s.append(time.perf_counter() - start)

    def get(self, index: int):
        while index >= len(self._cache):
            self._prepare_block(len(self._cache) // len(common.ENGINE_CLASSES))
        return self._cache[index]


def outcomes(proc, args) -> list:
    from repro.fuzz.oracle import run_outcome
    from repro.il.program import Program

    program = Program((proc,))
    return [run_outcome(program, arg) for arg in args]


def mismatch(proc, args, expected, compiled) -> Optional[str]:
    """Where the compiled procedure disagrees with the original's values."""
    got = outcomes(compiled, args)
    for arg, (kind, value), (kind2, value2) in zip(args, expected, got):
        if kind == "value" and (kind2, value2) != (kind, value):
            return f"{proc.name}({arg}): original returned {value!r}, compiled gave {kind2} {value2!r}"
    return None


def _new_engine():
    from repro.cobalt.engine import CobaltEngine
    from repro.cobalt.labels import standard_registry

    return CobaltEngine(standard_registry())


def compile_one(engine, proc, args, expected, tally: common.Tally):
    """Compile one procedure, check it; (seconds, compiled procedure)."""
    from repro.opts import ALL_OPTIMIZATIONS

    start = time.perf_counter()
    compiled, _ = engine.run_pipeline(ALL_OPTIMIZATIONS, proc)
    elapsed = time.perf_counter() - start
    tally.item(mismatch(proc, args, expected, compiled))
    return elapsed, compiled


def _engine_counts(engine) -> Dict[str, int]:
    return {name: getattr(engine.stats, name) for name in ENGINE_COUNTERS}


def engine_compile(seed: int, seconds: float, trace: bool, tally: common.Tally, details: dict):
    stream = ProcStream(seed)
    if not trace:
        start = time.perf_counter()
        engine = _new_engine()
        construct_s = time.perf_counter() - start
        count = math.ceil(seconds * BLOCKS_PER_SECOND) * len(common.ENGINE_CLASSES)
        latencies = [compile_one(engine, *stream.get(index), tally)[0]
                     for index in range(count)]
        metrics = {
            "setup_s": {"value": construct_s + common.median(stream.prep_s), "unit": "s"},
            "items_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        }
        metrics.update(common.latency_metrics(latencies))
        metrics["peak_rss_mb"] = {"value": common.peak_rss_mb(), "unit": "MB"}
        metrics["success_rate"] = {"value": 1.0 - tally.error_rate, "unit": "ratio"}
        details["procedures"] = len(latencies)
        details["engine_counts"] = _engine_counts(engine)
        return metrics

    # Traced: two fresh engines compile the prefix side by side, one
    # traced, taking turns to go first, so drift in machine speed and
    # process-wide warm-up fall on both alike.  A third engine then
    # compiles the prefix traced again; its counts must repeat exactly.
    engines = {False: _new_engine(), True: _new_engine()}
    busy = {False: 0.0, True: 0.0}
    size_in = size_out = 0
    tracer = Tracer()
    for index in range(TRACED_PREFIX):
        proc, args, expected = stream.get(index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            with tracer.installed(*([install_engine_layers] if traced else [])):
                elapsed, compiled = compile_one(engines[traced], proc, args, expected, tally)
            busy[traced] += elapsed
            if traced:
                size_in += _ir_size(proc)
                size_out += _ir_size(compiled)
    replay = _new_engine()
    with Tracer().installed(install_engine_layers):
        for index in range(TRACED_PREFIX):
            compile_one(replay, *stream.get(index), tally)
    counts = _engine_counts(engines[True])
    tally.check(counts == _engine_counts(replay),
                f"traced engine runs disagree: {counts} vs {_engine_counts(replay)}")
    totals = tracer.totals()
    keeps = counts["keeps_evals"] + counts["keeps_hits"]
    details["deterministic_counts"] = counts
    details["procedures"] = TRACED_PREFIX
    return {
        "engine.analysis_s": totals.seconds.get("engine.analysis", 0.0),
        "engine.legal_s": totals.seconds.get("engine.legal", 0.0),
        "engine.apply_s": totals.seconds.get("engine.apply", 0.0),
        "engine.keeps_evals": counts["keeps_evals"],
        "engine.keeps_hit_ratio": counts["keeps_hits"] / keeps if keeps else 0.0,
        "engine.worklist_pops": counts["worklist_pops"],
        "engine.rewrites": counts["transformations"],
        "engine.stmts_out_ratio": size_out / size_in,
        "trace.overhead_ratio": busy[False] / busy[True],
        "trace.uncovered_share": max(0.0, 1.0 - totals.covered_s / busy[True]),
    }
