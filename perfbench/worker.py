"""A fresh interpreter for one unit of verification work.

Reads a JSON job on stdin and prints one JSON record on stdout:

* ``{"mode": "pass", ...}`` — one verification pass (``verify_load.run_pass``);
* ``{"mode": "requests", "requests": [...], "cache_dir": ...}`` — the local
  ``verify_suite`` canonical report of each daemon request, the known
  answers the daemon's responses are compared with.

``t_ready`` in the record is the ``time.monotonic()`` reading once the
program is imported, so the parent can time the start-up.
"""

import json
import sys
import time


def _requests(job: dict) -> dict:
    from repro.api import VerifyOptions, verify_suite
    from repro.cli import parse_blocks
    from repro.cobalt.dsl import Optimization, PureAnalysis

    from verify_load import resolve_items

    out = []
    for request in job["requests"]:
        if "source" in request:
            analyses, optimizations = [], []
            for item in parse_blocks(request["source"]):
                if isinstance(item, PureAnalysis):
                    analyses.append(item)
                elif isinstance(item, Optimization):
                    optimizations.append(item)
                else:
                    optimizations.append(Optimization(item))
        else:
            analyses, optimizations = resolve_items(
                request["analyses"], request["optimizations"])
        suite = verify_suite(VerifyOptions(cache_dir=job["cache_dir"]),
                             analyses=analyses, optimizations=optimizations)
        out.append({
            "canonical": suite.canonical(),
            "verdicts": [[r.name, bool(r.sound)] for r in suite.reports],
        })
    return {"results": out}


def main() -> None:
    job = json.loads(sys.stdin.read())
    import repro.api  # noqa: F401  (the start-up being timed)
    import repro.verify.checker  # noqa: F401

    from common import peak_rss_mb
    from verify_load import run_pass

    t_ready = time.monotonic()
    if job["mode"] == "pass":
        record = run_pass(job["analyses"], job["optimizations"], job["cache_dir"], job["trace"])
    elif job["mode"] == "requests":
        record = _requests(job)
    else:
        raise SystemExit(f"unknown worker mode {job['mode']!r}")
    record["t_ready"] = t_ready
    record["rss_mb"] = peak_rss_mb()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
