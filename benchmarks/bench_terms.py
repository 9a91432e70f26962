"""E8 — the hash-consed term substrate (docs/TERMS.md).

One row: **obligation encoding** — building and clausifying every
obligation of a slice of the shipped suite, with the transformation memos
on vs. disabled (:func:`repro.logic.intern.structural_reference`).  This
is the encode phase E1's cold rows pay per optimization.  The assert is
the acceptance floor: ≥2x for the memoized pipeline.

The microbenchmark rows that raced interned terms against the
pre-interning dataclass module (hash, ==, free_vars, subst, build+dedup)
were retired with that module; EXPERIMENTS.md keeps their last table as a
one-time result.
"""

import time

from repro.logic import intern as I
from repro.logic.formulas import clausify
from repro.opts import ALL_OPTIMIZATIONS
from repro.cobalt.dsl import BackwardPattern
from repro.cobalt.labels import standard_registry
from repro.verify.obligations import ObligationBuilder

_ROWS = []

#: Encoding slice: forward (constProp, cse) and backward (deadAssignElim)
#: patterns; none with semantic labels (those need a registered analysis).
_ENCODE_ROWS = ("constProp", "cse", "deadAssignElim")
_ENCODE_REPEATS = 3


def _encode_workload():
    """Build and clausify every obligation of the slice, the way the
    checker does per statement-kind case (clausify of goal and seeds)."""
    by_name = {o.name: o for o in ALL_OPTIMIZATIONS}
    builder = ObligationBuilder(standard_registry(), {})
    total = 0
    for name in _ENCODE_ROWS:
        pattern = by_name[name].pattern
        if isinstance(pattern, BackwardPattern):
            obligations = builder.backward_obligations(pattern)
        else:
            obligations = builder.forward_obligations(pattern)
        for ob in obligations:
            total += len(clausify(ob.goal, origin=ob.name, prefix="sk_goal_"))
            for i, seed in enumerate(ob.seeds):
                total += len(
                    clausify(seed, origin="case-split-seed", prefix=f"sk_seed{i}_")
                )
    return total


def test_obligation_encoding(benchmark):
    """The encode phase with memos on vs the structural-reference pipeline.
    Also cross-checks that both pipelines produce identical clauses."""
    with I.structural_reference():
        expected = _encode_workload()
        start = time.perf_counter()
        for _ in range(_ENCODE_REPEATS):
            assert _encode_workload() == expected
        r_s = (time.perf_counter() - start) / _ENCODE_REPEATS

    mark = I.STATS.snapshot()
    assert _encode_workload() == expected  # warm the memo once
    start = time.perf_counter()
    for _ in range(_ENCODE_REPEATS):
        assert _encode_workload() == expected
    i_s = (time.perf_counter() - start) / _ENCODE_REPEATS
    d = I.STATS.delta(mark)
    assert d["clausify_hits"] > 0, "encode workload must hit the clausify memo"
    _ROWS.append(("obligation encoding", i_s, r_s, r_s / i_s if i_s else float("inf")))
    assert r_s / i_s >= 2.0, (
        f"obligation encoding: {r_s / i_s:.2f}x < required 2x"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert _ROWS
    from _report import emit

    lines = ["=== E8: memoized vs memo-off term pipeline ==="]
    lines.append(
        f"{'operation':28s} {'memo on':>10s} {'memo off':>10s} {'speedup':>8s}"
    )
    for name, i_s, r_s, speedup in _ROWS:
        lines.append(
            f"{name:28s} {i_s * 1e3:8.3f}ms {r_s * 1e3:8.3f}ms {speedup:7.1f}x"
        )
    lines.append(I.STATS.summary())
    rows = [
        {
            "operation": name,
            "memo_on_s": round(i_s, 6),
            "memo_off_s": round(r_s, 6),
            "speedup": round(speedup, 2),
        }
        for name, i_s, r_s, speedup in _ROWS
    ]
    emit(
        "E8_terms",
        "\n".join(lines),
        rows=rows,
        config={"encode_repeats": _ENCODE_REPEATS},
    )
