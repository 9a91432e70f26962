"""The versioned wire schema (docs/SERVICE.md).

The contract under test: one serialization shared by the daemon, the CLI
``--json`` output, and the ``to_wire()``/``from_wire()`` methods on every
public options/result type — round trips reproduce ``canonical()``
byte-identically, unknown fields are ignored (additive evolution), and a
newer ``schema_version`` is a loud :class:`WireError`, never a misparse.
"""

import json

import pytest

from repro.api import (
    EngineOptions,
    ProverOptions,
    RunResult,
    SuiteReport,
    VerifyOptions,
)
from repro.prover import ProverStats
from repro.service.wire import (
    WIRE_VERSION,
    WireError,
    decode_envelope,
    dumps,
    envelope,
    prover_stats_from_wire,
    prover_stats_to_wire,
)
from repro.verify.checker import ObligationResult, SoundnessReport


def _report() -> SoundnessReport:
    dep = SoundnessReport("constValue")
    dep.results = [
        ObligationResult("A1", True, 0.5, [], backend="internal"),
        ObligationResult("A2", True, 0.25, [], cached=True),
    ]
    report = SoundnessReport("constProp")
    report.dependencies = [dep]
    stats = ProverStats()
    stats.decisions = 7
    stats.kernel = "flat-py"
    report.results = [
        ObligationResult("F1", True, 1.0, [], stats=stats),
        ObligationResult(
            "F2", False, 2.0, ["in case F2[assign]:", "counterexample"],
            backend="smtlib:z3",
        ),
    ]
    return report


class TestEnvelope:
    def test_envelope_carries_version_and_kind(self):
        doc = envelope("thing", {"a": 1})
        assert doc["schema_version"] == WIRE_VERSION
        assert doc["kind"] == "thing"
        assert doc["a"] == 1

    def test_newer_version_is_refused(self):
        doc = envelope("thing", {})
        doc["schema_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="newer"):
            decode_envelope(doc)

    def test_older_or_equal_versions_decode(self):
        doc = envelope("thing", {})
        assert decode_envelope(doc, "thing") is doc

    def test_kind_mismatch_is_refused(self):
        with pytest.raises(WireError, match="expected wire kind"):
            decode_envelope(envelope("suite-report", {}), "soundness-report")

    def test_non_dict_is_refused(self):
        with pytest.raises(WireError):
            decode_envelope([1, 2, 3])

    def test_missing_version_is_refused(self):
        with pytest.raises(WireError, match="schema_version"):
            decode_envelope({"kind": "thing"})

    def test_reserved_keys_cannot_be_clobbered(self):
        # The payload is flattened into the envelope: a payload "kind"
        # would silently misroute every decoder (this bit the Job
        # document, whose job kind now travels as "job_kind").
        with pytest.raises(WireError, match="reserved"):
            envelope("job", {"kind": "suite"})
        with pytest.raises(WireError, match="reserved"):
            envelope("job", {"schema_version": 0})

    def test_dumps_is_deterministic_and_json(self):
        doc = envelope("thing", {"z": 1, "a": [2, 3]})
        text = dumps(doc)
        assert text == dumps(dict(reversed(list(doc.items()))))
        assert json.loads(text) == doc


class TestReportRoundTrips:
    def test_soundness_report_canonical_is_byte_identical(self):
        report = _report()
        back = SoundnessReport.from_wire(report.to_wire())
        assert back.canonical() == report.canonical()
        assert back.sound == report.sound
        assert [r.obligation for r in back.results] == ["F1", "F2"]
        assert back.results[1].context == report.results[1].context
        assert back.results[0].stats.decisions == 7
        assert back.results[0].stats.kernel == "flat-py"

    def test_error_report_round_trips(self):
        report = SoundnessReport("bad", error="translation failed")
        back = SoundnessReport.from_wire(report.to_wire())
        assert back.canonical() == report.canonical()
        assert not back.sound

    def test_suite_report_canonical_is_byte_identical(self):
        suite = SuiteReport(
            reports=[_report(), SoundnessReport("x", error="nope")],
            elapsed_s=3.25,
            backend="internal",
        )
        back = SuiteReport.from_wire(suite.to_wire())
        assert back.canonical() == suite.canonical()
        assert back.backend == "internal"
        assert back.elapsed_s == 3.25

    def test_obligation_result_round_trips(self):
        result = ObligationResult(
            "F3", False, 0.75, ["ctx line"], cached=True, backend="portfolio"
        )
        back = ObligationResult.from_wire(result.to_wire())
        assert back.obligation == "F3"
        assert back.proved is False
        assert back.cached is True
        assert back.backend == "portfolio"
        assert back.context == ["ctx line"]

    def test_unknown_fields_are_ignored(self):
        doc = _report().to_wire()
        doc["a_future_field"] = {"nested": True}
        doc["results"][0]["another_future_field"] = 9
        back = SoundnessReport.from_wire(doc)
        assert back.canonical() == _report().canonical()

    def test_json_round_trip_through_text(self):
        report = _report()
        text = dumps(report.to_wire())
        back = SoundnessReport.from_wire(json.loads(text))
        assert back.canonical() == report.canonical()


class TestStatsRoundTrip:
    def test_counters_survive(self):
        stats = ProverStats()
        stats.decisions = 11
        stats.rounds = 3
        stats.elapsed_s = 0.5
        back = prover_stats_from_wire(prover_stats_to_wire(stats))
        assert back.decisions == 11
        assert back.rounds == 3
        assert back.elapsed_s == 0.5

    def test_round_log_stays_local(self):
        stats = ProverStats()
        stats.round_log.append(("something", 1))
        doc = prover_stats_to_wire(stats)
        assert "round_log" not in doc


class TestOptionsRoundTrips:
    def test_verify_options_round_trip(self):
        options = VerifyOptions(
            jobs=4,
            cache_dir="/tmp/cache",
            obligation_timeout_s=12.5,
            prover=ProverOptions(timeout_s=9.0, max_rounds=5),
        )
        back = VerifyOptions.from_wire(options.to_wire())
        assert back == options

    def test_older_clients_cache_url_key_still_decodes(self):
        # cache_url/cache_timeout_s belonged to the removed network cache
        # tier; a document that still carries them decodes, ignoring both.
        doc = VerifyOptions(jobs=2).to_wire()
        assert "cache_url" not in doc and "cache_timeout_s" not in doc
        doc.update(cache_url=["http://localhost:8417"], cache_timeout_s=2.0)
        assert VerifyOptions.from_wire(doc) == VerifyOptions(jobs=2)

    def test_verify_options_defaults_fill_missing(self):
        doc = envelope("verify-options", {"cache_dir": "/tmp/cache"})
        back = VerifyOptions.from_wire(doc)
        assert back.cache_dir == "/tmp/cache"
        assert back.jobs == VerifyOptions().jobs
        assert back.prover == ProverOptions()

    def test_prover_options_round_trip(self):
        options = ProverOptions(timeout_s=1.0, max_rounds=2)
        doc = options.to_wire()
        assert ProverOptions.from_wire(doc) == options
        assert "mode" not in doc and "kernel" not in doc

    def test_engine_options_round_trip(self):
        options = EngineOptions(iterate=True, collect_stats=True)
        doc = options.to_wire()
        assert EngineOptions.from_wire(doc) == options
        assert "mode" not in doc

    def test_older_clients_mode_and_kernel_keys_still_decode(self):
        """Clients from before the prover-mode, kernel and engine switches
        were removed send those keys on every request; they decode, and
        are ignored."""
        prover_doc = envelope("prover-options", {
            "mode": "reference", "kernel": "reference",
            "timeout_s": 9.0, "max_rounds": 5,
        })
        assert ProverOptions.from_wire(prover_doc) == ProverOptions(
            timeout_s=9.0, max_rounds=5
        )
        verify_doc = envelope("verify-options", {
            "backend": "internal", "prover": prover_doc,
        })
        assert VerifyOptions.from_wire(verify_doc).prover == ProverOptions(
            timeout_s=9.0, max_rounds=5
        )
        engine_doc = envelope("engine-options", {
            "mode": "reference", "iterate": True,
        })
        assert EngineOptions.from_wire(engine_doc) == EngineOptions(iterate=True)


    def test_older_clients_solver_session_key_still_decodes(self):
        """Documents from before the external-solver backends were removed
        decode, and their backend and solver keys are ignored."""
        doc = VerifyOptions(jobs=2).to_wire()
        for key in ("backend", "solver_cmd", "solver_timeout_s",
                    "max_session_queries", "solver_session"):
            assert key not in doc
        doc.update(backend="portfolio", solver_cmd=["z3", "-smt2"],
                   solver_timeout_s=5.0, max_session_queries=0,
                   solver_session=True)
        assert VerifyOptions.from_wire(doc) == VerifyOptions(jobs=2)


class TestRunResultRoundTrip:
    def test_program_and_sites_survive(self):
        from repro.il import parse_program
        from repro.il.printer import program_to_str

        program = parse_program(
            "main(n) {\n  decl a;\n  a := 2;\n  return a;\n}\n"
        )
        result = RunResult(
            program=program, sites={"main": [1, 3]}, report=_report()
        )
        back = RunResult.from_wire(result.to_wire())
        assert program_to_str(back.program) == program_to_str(program)
        assert back.sites == {"main": [1, 3]}
        assert back.report.canonical() == _report().canonical()

    def test_empty_result_round_trips(self):
        back = RunResult.from_wire(RunResult(program=None).to_wire())
        assert back.program is None
        assert back.sites == {}
        assert back.report is None
