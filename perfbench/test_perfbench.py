"""Tests of the benchmark's own code, at tiny sizes.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root.
"""

import json

import pytest

import common
from daemon_load import response_error
from tracer import Tracer


# -- the ten-beyond-the-percentile rule --------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    # 92 samples: p90 sits between the 82nd and 83rd, ten lie beyond it.
    assert common.tail_percentile([float(i) for i in range(92)], 0.9) is not None
    assert common.tail_percentile([float(i) for i in range(91)], 0.9) is None
    # ties at the tail do not count as beyond
    assert common.tail_percentile([1.0] * 200, 0.9) is None
    assert common.tail_percentile([], 0.5) is None


def test_min_samples_for_is_the_least_that_suffices():
    for q in (0.5, 0.9):
        n = common.min_samples_for(q)
        assert common.tail_percentile([float(i) for i in range(n)], q) is not None
        assert common.tail_percentile([float(i) for i in range(n - 1)], q) is None


def test_latency_metrics_omit_an_unsupported_p90():
    few = common.latency_metrics([0.001 * i for i in range(1, 51)])
    assert "latency_p90_ms" not in few
    assert few["latency_p50_ms"]["samples"] == 50
    many = common.latency_metrics([0.001 * i for i in range(1, 201)])
    assert many["latency_p90_ms"]["unit"] == "ms"
    assert many["latency_p90_ms"]["samples"] == 200


# -- error accounting ---------------------------------------------------------


def _job(sound=True, canonical="C", status="done"):
    return json.dumps({
        "status": status,
        "result": {"suite": {"sound": sound}, "canonical": canonical},
    }).encode()


@pytest.mark.parametrize("status,body", [
    (429, b'{"error": "rate limit exceeded"}'),
    (500, b'{"error": "internal error"}'),
    (0, b"ConnectionRefusedError()"),
    (200, _job(sound=False)),
    (200, _job(canonical="other")),
    (200, _job(status="error")),
    (200, b"not json"),
])
def test_bad_responses_count_as_failed(status, body):
    tally = common.Tally()
    tally.item(response_error(200, _job(), "C"))
    tally.item(response_error(status, body, "C"))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.error_rate == 0.5
    assert not tally.correct


def test_wrong_verdicts_are_errors():
    assert common.verdict_error("constProp", True, []) is None
    assert common.verdict_error("constProp", False, ["F1"]) is not None
    assert common.verdict_error("buggyDaeNoUseCheck", True, []) is not None
    assert common.verdict_error("buggyDaeNoUseCheck", False, ["B2"]) is None
    assert common.verdict_error("buggyLoadElimDirectAssign", False, ["F1"]) is not None
    assert common.verdict_error("buggyLoadElimDirectAssign", False, ["F2"]) is None


def test_failed_check_makes_a_run_incorrect_without_an_operation():
    tally = common.Tally()
    tally.item(None)
    tally.check(False, "counts differ")
    assert tally.error_rate == 0.0 and not tally.correct


# -- seed reproducibility -----------------------------------------------------


def test_engine_draws_repeat_per_seed():
    from engine_load import ProcStream
    from repro.il.printer import proc_to_str

    def programs(seed):
        stream = ProcStream(seed)
        return [(proc_to_str(proc), args, expected)
                for proc, args, expected in (stream.get(i) for i in range(3))]

    assert programs(7) == programs(7)
    assert programs(7) != programs(8)
    assert common.engine_block_specs(3, 1) != common.engine_block_specs(3, 2)
    classes = {(s["num_stmts"], s["allow_pointers"], s["num_branches"])
               for s in common.engine_block_specs(3, 0)}
    assert classes == set(common.ENGINE_CLASSES)


def test_request_and_order_draws_repeat_per_seed():
    from repro.cli import split_blocks

    blocks = split_blocks((common.ROOT / "cobalt" / "suite.cobalt").read_text())
    assert common.daemon_requests(5, blocks) == common.daemon_requests(5, blocks)
    assert common.daemon_requests(5, blocks) != common.daemon_requests(6, blocks)
    for seed in range(20):
        asked = [n for r in common.daemon_requests(seed, blocks) if "source" not in r
                 for n in r["analyses"] + r["optimizations"]]
        assert sorted(asked) == sorted(2 * (common.SHIPPED_ANALYSES + common.SHIPPED_OPTIMIZATIONS))
    assert common.client_order(5, 0, 24) == common.client_order(5, 0, 24)
    assert common.client_order(5, 0, 24) != common.client_order(5, 1, 24)
    order = common.cold_item_order(5)
    assert order == common.cold_item_order(5, 0) != common.cold_item_order(6)
    assert order != common.cold_item_order(5, 1)
    assert sorted(order) == sorted(common.SHIPPED_OPTIMIZATIONS + common.BUGGY_OPTIMIZATIONS)


# -- the tracer -----------------------------------------------------------------


class _Layer:
    def work(self, depth):
        return self.work(depth - 1) if depth else 1


def test_tracer_counts_nested_calls_once_and_restores():
    original = _Layer.__dict__["work"]
    tracer = Tracer()
    with tracer.installed(lambda t: t.wrap(_Layer, "work", "layer.work")):
        assert _Layer().work(3) == 1
    assert _Layer.__dict__["work"] is original
    totals = tracer.totals()
    assert set(totals.seconds) == {"layer.work"}
    assert totals.covered_s == totals.seconds["layer.work"] > 0
