"""Start ``repro serve`` with the service layers traced.

Usage: ``python3 perfbench/launcher.py OUT.json -- <repro CLI arguments>``

Wraps the public functions of the verification service, then runs the
CLI's own ``main`` with the given arguments, so the daemon is configured
exactly as ``python -m repro <arguments>`` would configure it.  When the
daemon exits (SIGTERM drains it), one record per job is written to
``OUT.json``: its submit, start and finish times (``time.monotonic``,
comparable with the client's clock) and the span totals of the work done
while it ran.
"""

import json
import sys
import threading
import time
from collections import defaultdict


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)

    from repro import cli
    from repro.service.jobs import Job, VerificationService

    from tracer import Tracer, install_verify_layers, install_wire_layer

    tracer = Tracer()
    stamps = defaultdict(dict)
    lock = threading.Lock()

    def stamp(job_id, name, value):
        with lock:
            stamps[job_id][name] = value

    def submitted(tracer, args, job, elapsed, started):
        stamp(job.id, "submit", started)

    def started(tracer, args, result, elapsed, token):
        tracer.set_scope(args[0].id)
        stamp(args[0].id, "start", time.monotonic())

    def finished(tracer, args, result, elapsed, token):
        stamp(args[0].id, "finish", time.monotonic())
        tracer.set_scope(None)

    install_verify_layers(tracer)
    install_wire_layer(tracer)
    tracer.wrap(VerificationService, "submit", "jobs.submit",
                before=lambda args: time.monotonic(), after=submitted)
    tracer.wrap(Job, "start", "jobs.start", after=started)
    tracer.wrap(Job, "finish", "jobs.finish", after=finished)
    tracer.wrap(Job, "fail", "jobs.fail", after=finished)
    try:
        return cli.main(argv)
    finally:
        scopes = tracer.scopes()
        jobs = []
        for job_id, times in stamps.items():
            totals = scopes.get(job_id)
            jobs.append(dict(
                times,
                seconds=dict(totals.seconds) if totals else {},
                counts=dict(totals.counts) if totals else {},
            ))
        with open(out_path, "w") as fh:
            json.dump({"jobs": jobs}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
