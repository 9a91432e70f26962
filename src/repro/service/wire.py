"""The versioned wire schema: one serialization for three surfaces.

Every payload the daemon serves, every ``--json`` document the CLI emits,
and every ``to_wire()``/``from_wire()`` method on the public result types
goes through this module — the three surfaces share one schema and cannot
drift.

Shape
-----

Every wire object is a JSON-serializable dict carrying two envelope
fields::

    {"schema_version": 1, "kind": "suite-report", ...}

* ``schema_version`` is a single integer, bumped on any change a v1
  decoder could misread.  Decoders accept documents whose version is *at
  most* their own (older documents decode through the same tolerant path);
  a newer version raises :class:`WireError` — never a misparse.
* ``kind`` names the payload type.  Decoders check it, so a suite report
  cannot be silently decoded as an options object.
* Unknown fields are **ignored** on decode.  Additive evolution (new
  counters, new option axes with defaults) therefore does not need a
  version bump; only field removals/renames/retypes do.

Round-trip guarantee: for every result type, ``from_wire(x.to_wire())``
reproduces ``canonical()`` byte-identically — the regression tests in
``tests/test_wire.py`` pin this, which is what makes daemon responses
diffable against local runs.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional

#: Bump on any change a current decoder could misread (removal, rename,
#: retype).  Additive fields do NOT need a bump — decode ignores unknowns.
WIRE_VERSION = 1


class WireError(ValueError):
    """A wire document this decoder cannot (or must not) interpret."""


# ---------------------------------------------------------------------------
# Envelope helpers
# ---------------------------------------------------------------------------


def envelope(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap ``payload`` in the versioned wire envelope.

    The payload is flattened into the envelope, so the reserved keys
    must not appear in it — a payload ``kind`` would silently clobber
    the envelope's and misroute every decoder downstream."""
    if "kind" in payload or "schema_version" in payload:
        raise WireError("payload must not carry the reserved envelope "
                        "keys 'kind'/'schema_version'")
    out: Dict[str, Any] = {"schema_version": WIRE_VERSION, "kind": kind}
    out.update(payload)
    return out


def decode_envelope(data: Any, kind: Optional[str] = None) -> Dict[str, Any]:
    """Validate the envelope of a wire document; the dict itself back.

    Raises :class:`WireError` for non-dicts, missing/invalid versions,
    versions newer than this decoder, and (when ``kind`` is given) a
    mismatched payload kind."""
    if not isinstance(data, dict):
        raise WireError(f"wire document must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise WireError(f"missing or invalid schema_version: {version!r}")
    if version > WIRE_VERSION:
        raise WireError(
            f"wire schema_version {version} is newer than this decoder "
            f"(supports <= {WIRE_VERSION})"
        )
    if kind is not None:
        got = data.get("kind")
        if got != kind:
            raise WireError(f"expected wire kind {kind!r}, got {got!r}")
    return data


def dumps(data: Dict[str, Any]) -> str:
    """The canonical textual rendering of a wire document.

    Deterministic (sorted keys, fixed separators) so two processes
    serializing the same object emit identical bytes — the CLI ``--json``
    output and the daemon's responses are diffable."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _str_list(value: Any) -> List[str]:
    if not isinstance(value, (list, tuple)):
        return []
    return [str(item) for item in value]


# ---------------------------------------------------------------------------
# Prover stats (observability counters; optional on obligation results)
# ---------------------------------------------------------------------------

#: ProverStats fields carried over the wire: every plain counter/float and
#: the kernel identity string.  The per-round instance log is a debugging
#: record (potentially huge, never printed by reports) and stays local.
_STATS_SKIP = ("round_log",)


def prover_stats_to_wire(stats) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(stats):
        if field.name in _STATS_SKIP:
            continue
        value = getattr(stats, field.name)
        if isinstance(value, (bool, int, float, str)):
            out[field.name] = value
    return envelope("prover-stats", out)


def prover_stats_from_wire(data: Any):
    from repro.prover import ProverStats

    data = decode_envelope(data, "prover-stats")
    stats = ProverStats()
    for field in dataclasses.fields(stats):
        if field.name in _STATS_SKIP or field.name not in data:
            continue
        default = getattr(stats, field.name)
        value = data[field.name]
        if isinstance(default, bool) or isinstance(value, bool):
            continue  # no boolean counters today; a bool is a foreign field
        if isinstance(default, (int, float)) and isinstance(value, (int, float)):
            setattr(stats, field.name, type(default)(value))
        elif isinstance(default, str) and isinstance(value, str):
            setattr(stats, field.name, value)
    return stats


# ---------------------------------------------------------------------------
# Obligation / soundness / suite reports
# ---------------------------------------------------------------------------


def obligation_result_to_wire(result) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "obligation": result.obligation,
        "proved": bool(result.proved),
        "elapsed_s": float(result.elapsed_s),
        "context": list(result.context),
        "cached": bool(result.cached),
        "backend": result.backend,
    }
    if result.stats is not None:
        payload["stats"] = prover_stats_to_wire(result.stats)
    return envelope("obligation-result", payload)


def obligation_result_from_wire(data: Any):
    from repro.verify.checker import ObligationResult

    data = decode_envelope(data, "obligation-result")
    try:
        name = str(data["obligation"])
        proved = bool(data["proved"])
    except KeyError as exc:
        raise WireError(f"obligation-result missing field: {exc}") from None
    stats = None
    if isinstance(data.get("stats"), dict):
        stats = prover_stats_from_wire(data["stats"])
    return ObligationResult(
        name,
        proved,
        float(data.get("elapsed_s", 0.0)),
        _str_list(data.get("context")),
        cached=bool(data.get("cached", False)),
        stats=stats,
        backend=str(data.get("backend", "internal")),
    )


def soundness_report_to_wire(report) -> Dict[str, Any]:
    return envelope(
        "soundness-report",
        {
            "name": report.name,
            "sound": bool(report.sound),
            "results": [obligation_result_to_wire(r) for r in report.results],
            "dependencies": [
                soundness_report_to_wire(dep) for dep in report.dependencies
            ],
            "error": report.error,
        },
    )


def soundness_report_from_wire(data: Any):
    from repro.verify.checker import SoundnessReport

    data = decode_envelope(data, "soundness-report")
    if "name" not in data:
        raise WireError("soundness-report missing field: 'name'")
    error = data.get("error")
    report = SoundnessReport(
        str(data["name"]), error=None if error is None else str(error)
    )
    results = data.get("results")
    if isinstance(results, list):
        report.results = [obligation_result_from_wire(r) for r in results]
    dependencies = data.get("dependencies")
    if isinstance(dependencies, list):
        report.dependencies = [
            soundness_report_from_wire(d) for d in dependencies
        ]
    return report


def suite_report_to_wire(report) -> Dict[str, Any]:
    return envelope(
        "suite-report",
        {
            "sound": bool(report.sound),
            "backend": report.backend,
            "elapsed_s": float(report.elapsed_s),
            "reports": [soundness_report_to_wire(r) for r in report.reports],
        },
    )


def suite_report_from_wire(data: Any):
    from repro.api import SuiteReport

    data = decode_envelope(data, "suite-report")
    out = SuiteReport(
        backend=str(data.get("backend", "")),
        elapsed_s=float(data.get("elapsed_s", 0.0)),
    )
    reports = data.get("reports")
    if isinstance(reports, list):
        out.reports = [soundness_report_from_wire(r) for r in reports]
    return out


def run_result_to_wire(result) -> Dict[str, Any]:
    from repro.il.printer import program_to_str

    program = result.program
    return envelope(
        "run-result",
        {
            "program": None if program is None else program_to_str(program),
            "sites": {name: list(idxs) for name, idxs in result.sites.items()},
            "report": (
                None if result.report is None
                else soundness_report_to_wire(result.report)
            ),
        },
    )


def run_result_from_wire(data: Any):
    from repro.api import RunResult
    from repro.il import parse_program

    data = decode_envelope(data, "run-result")
    program = data.get("program")
    sites = data.get("sites")
    report = data.get("report")
    return RunResult(
        program=None if program is None else parse_program(str(program)),
        sites={
            str(name): [int(i) for i in idxs]
            for name, idxs in (sites or {}).items()
            if isinstance(idxs, list)
        },
        report=None if report is None else soundness_report_from_wire(report),
    )


# ---------------------------------------------------------------------------
# Options dataclasses
# ---------------------------------------------------------------------------


def prover_options_to_wire(options) -> Dict[str, Any]:
    return envelope(
        "prover-options",
        {
            "timeout_s": options.timeout_s,
            "max_rounds": options.max_rounds,
            "max_instances": options.max_instances,
            "max_decisions": options.max_decisions,
        },
    )


def prover_options_from_wire(data: Any):
    from repro.api import ProverOptions

    # Documents from older clients may still carry "mode"/"kernel" (the
    # removed prover-mode and kernel switches); like every unknown key,
    # they are ignored.
    data = decode_envelope(data, "prover-options")
    defaults = ProverOptions()
    return ProverOptions(
        timeout_s=float(data.get("timeout_s", defaults.timeout_s)),
        max_rounds=int(data.get("max_rounds", defaults.max_rounds)),
        max_instances=int(data.get("max_instances", defaults.max_instances)),
        max_decisions=int(data.get("max_decisions", defaults.max_decisions)),
    )


def verify_options_to_wire(options) -> Dict[str, Any]:
    return envelope(
        "verify-options",
        {
            "backend": options.backend,
            "solver_cmd": (
                None if options.solver_cmd is None else list(options.solver_cmd)
            ),
            "solver_timeout_s": options.solver_timeout_s,
            "max_session_queries": options.max_session_queries,
            "jobs": options.jobs,
            "cache_dir": options.cache_dir,
            "obligation_timeout_s": options.obligation_timeout_s,
            "prover": prover_options_to_wire(options.prover),
        },
    )


def verify_options_from_wire(data: Any):
    from repro.api import ProverOptions, VerifyOptions

    data = decode_envelope(data, "verify-options")
    defaults = VerifyOptions()
    prover = data.get("prover")
    solver_cmd = data.get("solver_cmd", defaults.solver_cmd)
    obligation_timeout = data.get(
        "obligation_timeout_s", defaults.obligation_timeout_s
    )
    max_session_queries = int(
        data.get("max_session_queries", defaults.max_session_queries)
    )
    # Older documents may carry "solver_session" (the removed switch);
    # false meant one solver process per query, whatever else they say.
    if data.get("solver_session") is False:
        max_session_queries = 1
    # "cache_url"/"cache_timeout_s" (the removed network cache tier) are
    # ignored like every unknown key.
    return VerifyOptions(
        backend=str(data.get("backend", defaults.backend)),
        solver_cmd=(
            None if solver_cmd is None else tuple(str(p) for p in solver_cmd)
        ),
        solver_timeout_s=float(
            data.get("solver_timeout_s", defaults.solver_timeout_s)
        ),
        max_session_queries=max_session_queries,
        jobs=int(data.get("jobs", defaults.jobs)),
        cache_dir=(
            None if data.get("cache_dir", defaults.cache_dir) is None
            else str(data.get("cache_dir", defaults.cache_dir))
        ),
        obligation_timeout_s=(
            None if obligation_timeout is None else float(obligation_timeout)
        ),
        prover=(
            prover_options_from_wire(prover)
            if isinstance(prover, dict)
            else ProverOptions()
        ),
    )


def engine_options_to_wire(options) -> Dict[str, Any]:
    return envelope(
        "engine-options",
        {
            "iterate": options.iterate,
            "collect_stats": options.collect_stats,
        },
    )


def engine_options_from_wire(data: Any):
    from repro.api import EngineOptions

    # An older client's "mode" (the removed engine switch) is ignored.
    data = decode_envelope(data, "engine-options")
    defaults = EngineOptions()
    return EngineOptions(
        iterate=bool(data.get("iterate", defaults.iterate)),
        collect_stats=bool(data.get("collect_stats", defaults.collect_stats)),
    )
