"""Tests for report objects and result rendering (checker and prover)."""

import pytest

from repro.prover.core import ProverStats, Result, Status
from repro.verify.checker import ObligationResult, SoundnessReport


class TestSoundnessReport:
    def _ok(self, name, seconds=0.5):
        return ObligationResult(name, True, seconds)

    def _bad(self, name, seconds=0.5, context=None):
        return ObligationResult(name, False, seconds, context or ["p [decision@0]"])

    def test_sound_requires_all_proved(self):
        report = SoundnessReport("x", [self._ok("F1"), self._ok("F2"), self._ok("F3")])
        assert report.sound
        report.results.append(self._bad("F2"))
        assert not report.sound

    def test_empty_report_is_not_sound(self):
        assert not SoundnessReport("x").sound

    def test_error_forces_rejection(self):
        report = SoundnessReport("x", [self._ok("F1")], error="boom")
        assert not report.sound
        assert "boom" in report.summary()

    def test_dependencies_propagate(self):
        dep = SoundnessReport("analysis", [self._bad("F1")])
        report = SoundnessReport("opt", [self._ok("F1")], dependencies=[dep])
        assert not report.sound
        dep_ok = SoundnessReport("analysis", [self._ok("F1")])
        report2 = SoundnessReport("opt", [self._ok("F1")], dependencies=[dep_ok])
        assert report2.sound

    def test_elapsed_includes_dependencies(self):
        dep = SoundnessReport("analysis", [self._ok("F1", 2.0)])
        report = SoundnessReport("opt", [self._ok("F1", 1.0)], dependencies=[dep])
        assert report.elapsed_s == pytest.approx(3.0)

    def test_failed_obligations_filtered(self):
        report = SoundnessReport("x", [self._ok("F1"), self._bad("F2")])
        assert [r.obligation for r in report.failed_obligations()] == ["F2"]

    def test_summary_marks_each_obligation(self):
        report = SoundnessReport("demo", [self._ok("F1"), self._bad("F2")])
        text = report.summary()
        assert "demo: REJECTED" in text
        assert "F1: ok" in text and "F2: FAILED" in text


class TestProverResult:
    def test_proved_has_no_context_in_str(self):
        result = Result(Status.PROVED, "goal", [], ProverStats())
        assert str(result) == "[proved] goal"

    def test_unknown_renders_context(self):
        result = Result(Status.UNKNOWN, "goal", ["a = b  [decision@0]"], ProverStats())
        text = str(result)
        assert "counterexample context" in text
        assert "a = b" in text

    def test_proved_property(self):
        assert Result(Status.PROVED, "g").proved
        assert not Result(Status.UNKNOWN, "g").proved
