"""Verification-as-a-service: the ``repro serve`` daemon (docs/SERVICE.md).

The paper's pitch is that optimization writers get soundness verdicts
automatically; this package is the always-on version of that pitch — a
long-lived asyncio HTTP/JSON daemon over the frozen :mod:`repro.api`
façade.  Clients POST an optimization (Cobalt source, or a named slice of
the shipped suite) and get back a job id, a polled or streamed verdict,
and — because reports are canonical and obligations content-addressed —
answers that are byte-identical to a local ``verify_suite`` run.

* :mod:`repro.service.wire` — the versioned wire schema shared by the
  daemon, the CLI ``--json`` output, and the ``to_wire()``/``from_wire()``
  methods on the public result types;
* :mod:`repro.service.jobs` — the job queue, running each job's stock
  checker over one shared proof cache (whose single-flight claims prove
  each obligation once *across* concurrent requests) and one shared
  process pool;
* :mod:`repro.service.ratelimit` — per-client token buckets behind the
  daemon's 429s;
* :mod:`repro.service.server` — the stdlib-only asyncio HTTP front end.
"""

from repro.service.jobs import Job, ServiceOverloadedError, VerificationService
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.server import ServiceServer, run_server
from repro.service.wire import WIRE_VERSION, WireError

__all__ = [
    "WIRE_VERSION",
    "Job",
    "RateLimiter",
    "ServiceOverloadedError",
    "ServiceServer",
    "TokenBucket",
    "VerificationService",
    "WireError",
    "run_server",
]
