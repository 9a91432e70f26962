"""E4 — the execution engine (paper section 5.2).

The paper implements Cobalt optimizations as a substitution-set dataflow
analysis in Whirlwind and reports executing all of its optimizations.  This
harness measures our implementation of the same algorithm: per-optimization
throughput over generated programs (fixed-point analysis + transformation),
scaling with procedure size, and the recursive/iterated mode (the
"recursive version of dead-assignment elimination" the paper describes).

The scaling experiment times the memoized priority worklist solver (see
docs/ENGINE.md) at growing procedure sizes.  Its one-time race against the
naive sweep it replaced is kept in EXPERIMENTS.md (E4, "before").
"""

import time
from dataclasses import replace

import pytest

from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.cobalt.engine import CobaltEngine
from repro.cobalt.labels import standard_registry
from repro.opts import const_prop, copy_prop, cse, dae

_SUMMARY = []
_SCALING = []


def _programs(count, **kw):
    config = GeneratorConfig(**kw)
    return [
        ProgramGenerator(config, seed=seed).gen_proc() for seed in range(count)
    ]


@pytest.mark.parametrize("opt", [const_prop, copy_prop, cse, dae], ids=lambda o: o.name)
def test_engine_throughput(benchmark, engine, opt):
    procs = _programs(20, num_stmts=16, num_vars=4)

    def run():
        total = 0
        for proc in procs:
            _, applied = engine.run_optimization(opt, proc)
            total += len(applied)
        return total

    total = benchmark(run)
    stmts = sum(len(p.stmts) for p in procs)
    _SUMMARY.append((opt.name, stmts, total))


def _timed(engine, procs, opts):
    """One full suite pass over ``procs``; returns (seconds, stats delta)."""
    engine.reset_stats()
    outputs = []
    start = time.perf_counter()
    for proc in procs:
        for opt in opts:
            outputs.append(engine.run_optimization(opt, proc))
    elapsed = time.perf_counter() - start
    return elapsed, engine.stats.snapshot(), outputs


@pytest.mark.parametrize(
    "size", [8, 16, 32, 64, 128], ids=lambda s: f"{s}stmts"
)
def test_engine_scaling(benchmark, size):
    """The worklist at growing procedure sizes: wall time, pops, and
    ``keeps`` evaluations for one suite pass."""
    procs = _programs(4, num_stmts=size, num_vars=4)
    opts = [const_prop, dae]
    wl_s, wl_stats, _ = _timed(CobaltEngine(standard_registry()), procs, opts)
    _SCALING.append(
        (size, wl_s, wl_stats.worklist_pops, wl_stats.keeps_evals, wl_stats.keeps_hit_rate)
    )
    benchmark.pedantic(
        lambda: _timed(CobaltEngine(standard_registry()), procs, opts),
        rounds=1,
        iterations=1,
    )


def test_iterated_dae(benchmark, engine):
    """The recursive mode: iterate DAE to a fixpoint so chains of dead
    assignments (x dead only after its consumer dies) all disappear."""
    from repro.il.parser import parse_program

    proc = parse_program(
        """
        main(n) {
          decl a;
          decl b;
          decl c;
          a := n;
          b := a;
          c := b;
          c := 1;
          return c;
        }
        """
    ).proc("main")
    iterating = replace(dae, iterate=True)

    def run():
        out, applied = engine.run_optimization(iterating, proc)
        return len(applied)

    removed = benchmark(run)
    assert removed == 3  # the whole a -> b -> c chain


def test_composed_fixpoint(benchmark, engine):
    """Composition (section 5.2): a pass set iterated to a global fixpoint
    finds cascading rewrites a fixed ordering would miss."""
    from repro.il.parser import parse_program
    from repro.opts import const_branch
    from repro.opts.algebraic import add_zero_right

    proc = parse_program(
        """
        main(n) {
          decl a;
          decl b;
          decl c;
          a := 2 * 3;
          b := a;
          c := b + 0;
          return c;
        }
        """
    ).proc("main")
    from repro.opts import const_fold

    passes = [const_fold, const_prop, add_zero_right, dae]

    def run():
        out, counts = engine.run_to_fixpoint(passes, proc)
        return counts

    counts = benchmark(run)
    assert counts["constFold"] == 1
    assert counts.get("deadAssignElim", 0) >= 2


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _SUMMARY and not _SCALING:
        return
    from _report import emit

    lines = []
    if _SUMMARY:
        lines.append("=== E4: engine throughput (20 generated procedures each) ===")
        lines.append(f"{'optimization':16s} {'stmts':>6s} {'transformations':>16s}")
        for name, stmts, total in _SUMMARY:
            lines.append(f"{name:16s} {stmts:6d} {total:16d}")
    if _SCALING:
        if lines:
            lines.append("")
        lines.append(
            "=== E4: worklist scaling "
            "(constProp+deadAssignElim over 4 procedures) ==="
        )
        lines.append(
            f"{'size':>5s} {'worklist_s':>11s} {'pops':>7s} "
            f"{'wl_keeps':>9s} {'hit_rate':>9s}"
        )
        for size, wl_s, pops, wl_keeps, rate in _SCALING:
            lines.append(
                f"{size:5d} {wl_s:11.4f} {pops:7d} {wl_keeps:9d} {rate:8.1%}"
            )
    emit("E4_engine", "\n".join(lines))
