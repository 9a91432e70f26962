"""The ``daemon-warm`` workload: verification jobs against ``repro serve``.

The daemon is a separate process (``--jobs 1``, one job at a time with
``--max-jobs 1``, rate limiting off with ``--burst 0``) over a proof store
that set-up filled.  Jobs do not overlap because two overlapping jobs can
intern one term twice in ``repro.logic.intern``, hash an obligation to
another key and prove it again (see README.md).  The request pool is
seeded suite subsets of one to four items by name plus every block of
``cobalt/suite.cobalt`` as ``source``; every request waits for its verdict.
Set-up computes each request's canonical report locally (a worker running
``verify_suite``), starts the daemon and primes it with every request
once, so the timed phase is one population: answers from the daemon's
memory tier.  ``/v1/stats`` deltas must show no broker dispatch and no
cache miss in the timed phase.

The load is a closed loop: ``CLIENTS`` threads of one client process each
send their next request when the previous answer arrived, so while one
job runs the daemon reads, parses and queues the next.  The daemon
answers one request per connection, so each request opens its own
connection; latency runs from connecting to the last byte of the body.
The client sends prepared bytes and checks the answers after the loop, so
it takes little of the machine's second core from the daemon.

With tracing a second daemon runs under ``launcher.py``, and the clients
alternate between the two daemons in rounds of one whole pass over the
pool each, so per-job counts cover whole passes; every traced round
must report the same counts.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import common
from verify_load import run_worker

CLIENTS = 2
HOST = "127.0.0.1"
#: Per-job layer counts that must repeat exactly for the same requests.
DETERMINISTIC_COUNTS = ("obligations.count", "cache.hits", "cache.stores")


def response_error(status: int, data: bytes, expected: str) -> Optional[str]:
    """Why a job response is not the known answer (None when it is)."""
    if status != 200:
        return f"HTTP {status}"
    try:
        job = json.loads(data)
        result = job["result"]
        if job["status"] != "done":
            return f"job {job['status']}: {job.get('error')}"
        if not result["suite"]["sound"]:
            return "a shipped item was REJECTED"
        if result["canonical"] != expected:
            return "canonical report differs from the local run"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed job response: {exc!r}"
    return None


def http_request(request: dict) -> bytes:
    """The complete bytes of one waiting ``POST /v1/jobs`` for ``request``."""
    body = {"schema_version": 1, "kind": "job-request", "wait": True}
    body.update(request)
    payload = json.dumps(body).encode()
    head = (f"POST /v1/jobs HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode() + payload


def post(port: int, request: bytes) -> Tuple[int, bytes, float]:
    """Send prepared request bytes on a fresh connection and read to the
    end (the daemon closes every connection after answering), so the
    client does almost no work per request: (status, body, latency_s);
    status 0 when the connection failed."""
    start = time.perf_counter()
    chunks = []
    try:
        with socket.create_connection((HOST, port), timeout=60) as sock:
            sock.sendall(request)
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError as exc:
        return 0, repr(exc).encode(), time.perf_counter() - start
    latency = time.perf_counter() - start
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, body, latency


def get_stats(port: int) -> dict:
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        conn.request("GET", "/v1/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class Daemon:
    """One daemon process; with ``trace_path`` it runs under ``launcher.py``."""

    def __init__(self, cache_dir: str, trace_path: Optional[str] = None) -> None:
        argv = ["--jobs", "1", "--cache-dir", cache_dir,
                "serve", "--port", "0", "--max-jobs", "1", "--burst", "0"]
        self.trace_path = trace_path
        if trace_path:
            cmd = [sys.executable, str(common.ROOT / "perfbench" / "launcher.py"),
                   trace_path, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        self.log = tempfile.TemporaryFile(dir=common.WORK)
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=common.worker_env(), cwd=common.ROOT,
        )
        self.port = self._wait_listening(60.0)

    def _wait_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.log.seek(0)
        message = self.log.read().decode(errors="replace")[-2000:]
        self.stop()
        raise RuntimeError(f"daemon did not start: {message}")

    def peak_rss_mb(self) -> Optional[float]:
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> Optional[dict]:
        """SIGTERM (a clean drain), then the launcher's job records."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()
        if self.trace_path and os.path.exists(self.trace_path):
            with open(self.trace_path) as fh:
                return json.load(fh)
        return None


def closed_loop(port: int, pool: List[bytes], expected: List[str], seed: int,
                seconds: Optional[float], cycles: Optional[int]) -> List[dict]:
    """Each client walks its own seeded order of the pool until ``seconds``
    have passed or it completed ``cycles`` whole passes."""
    results: List[List[dict]] = [[] for _ in range(CLIENTS)]
    deadline = time.monotonic() + seconds if seconds is not None else None

    def client(index: int) -> None:
        order = common.client_order(seed, index, len(pool))
        sent = 0
        while True:
            if cycles is not None and sent >= cycles * len(order):
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            slot = order[sent % len(order)]
            submitted = time.monotonic()
            status, data, latency = post(port, pool[slot])
            results[index].append({"submit": submitted, "latency_s": latency,
                                   "slot": slot, "status": status, "data": data})
            sent += 1

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Answers are checked after the loop, so checking costs no load time.
    records = [r for rs in results for r in rs]
    for record in records:
        record["error"] = response_error(
            record.pop("status"), record.pop("data"), expected[record.pop("slot")])
    return records


def _phase(daemon: Daemon, pool, expected, seed, seconds, cycles, tally) -> dict:
    before = get_stats(daemon.port)
    start = time.monotonic()
    done = closed_loop(daemon.port, pool, expected, seed, seconds, cycles)
    wall = time.monotonic() - start
    after = get_stats(daemon.port)
    for record in done:
        tally.item(record["error"])
    dispatches = after["broker"]["dispatches"] - before["broker"]["dispatches"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    tally.check(dispatches == 0, f"timed phase dispatched {dispatches} time(s) to the broker")
    tally.check(misses == 0, f"timed phase missed the cache {misses} time(s)")
    return {
        "records": done,
        "start": start,
        "wall_s": wall,
        "rate": len(done) / wall,
        "dispatches": dispatches,
        "cache_hits": after["cache"]["hits"] - before["cache"]["hits"],
    }


def _prime(daemon: Daemon, pool, expected, tally: common.Tally) -> None:
    for body, canonical in zip(pool, expected):
        status, data, _ = post(daemon.port, body)
        error = response_error(status, data, canonical)
        tally.check(error is None, f"priming request failed: {error}")


def daemon_warm(seed: int, seconds: float, trace: bool, tally: common.Tally, details: dict):
    from repro.cli import split_blocks

    blocks = split_blocks((common.ROOT / "cobalt" / "suite.cobalt").read_text())
    requests = common.daemon_requests(seed, blocks)
    pool = [http_request(r) for r in requests]
    work = tempfile.mkdtemp(prefix="daemon-", dir=common.WORK)
    store = os.path.join(work, "store")
    daemons: List[Daemon] = []
    try:
        start = time.perf_counter()
        reference = run_worker({"mode": "requests", "requests": requests, "cache_dir": store})
        expected = [r["canonical"] for r in reference["results"]]
        for result in reference["results"]:
            for name, sound in result["verdicts"]:
                tally.check(sound, f"local reference rejected shipped item {name}")
        daemons.append(Daemon(store))
        _prime(daemons[0], pool, expected, tally)
        setup_s = time.perf_counter() - start
        details["pool"] = len(pool)

        if not trace:
            phase = _phase(daemons[0], pool, expected, seed, seconds, None, tally)
            latencies = [r["latency_s"] for r in phase["records"]]
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "items_per_s": {"value": phase["rate"], "unit": "1/s"},
            }
            metrics.update(common.latency_metrics(latencies))
            metrics["peak_rss_mb"] = {"value": daemons[0].peak_rss_mb(), "unit": "MB"}
            metrics["success_rate"] = {"value": 1.0 - tally.error_rate, "unit": "ratio"}
            details["jobs"] = len(latencies)
            return metrics

        # Traced: a second daemon runs under the launcher, and rounds of
        # one whole pass of the pool per client alternate between the two,
        # so drift in machine speed falls on both alike.
        daemons.append(Daemon(store, trace_path=os.path.join(work, "trace.json")))
        _prime(daemons[1], pool, expected, tally)
        phases: Dict[bool, List[dict]] = {False: [], True: []}
        began = time.monotonic()
        while time.monotonic() - began < seconds or len(phases[True]) < 2:
            for traced in (False, True):
                phases[traced].append(
                    _phase(daemons[traced], pool, expected, seed, None, 1, tally))
        records = daemons.pop().stop()
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)

    windows = [(p["start"], p["start"] + p["wall_s"]) for p in phases[True]]
    jobs = [j for j in records["jobs"]
            if any(lo <= j.get("submit", -1.0) <= hi for lo, hi in windows)]
    requests_sent = sum(len(p["records"]) for p in phases[True])
    tally.check(len(jobs) == requests_sent,
                f"launcher recorded {len(jobs)} job(s) for {requests_sent} request(s)")
    # Every traced round sends the same requests, so it must report the
    # same counts.
    rounds = {json.dumps({name: sum(j["counts"].get(name, 0) for j in jobs
                                    if lo <= j["submit"] <= hi)
                          for name in DETERMINISTIC_COUNTS}, sort_keys=True)
              for lo, hi in windows}
    tally.check(len(rounds) == 1, f"traced rounds disagree on counts: {sorted(rounds)}")
    return layer_values(jobs, phases, details)


def layer_values(jobs: List[dict], phases: Dict[bool, List[dict]], details: dict) -> Dict[str, float]:
    """Per-job means of the traced daemon's spans and counters."""
    n = len(jobs)
    mean = lambda f: sum(f(j) for j in jobs) / n
    seconds = lambda name: mean(lambda j: j["seconds"].get(name, 0.0))
    count = lambda name: mean(lambda j: j["counts"].get(name, 0))
    rate = lambda ps: sum(len(p["records"]) for p in ps) / sum(p["wall_s"] for p in ps)
    queue_s = mean(lambda j: j["start"] - j["submit"])
    run_s = mean(lambda j: j["finish"] - j["start"])
    latencies = [r["latency_s"] for p in phases[True] for r in p["records"]]
    latency_s = sum(latencies) / len(latencies)
    hits, misses = count("cache.hits"), count("cache.misses")
    details["jobs"] = n
    details["deterministic_counts"] = {name: count(name) for name in DETERMINISTIC_COUNTS}
    return {
        "jobs.queue_ms": queue_s * 1e3,
        "jobs.run_ms": run_s * 1e3,
        "wire.encode_ms": seconds("wire.encode") * 1e3,
        "http.overhead_ms": (latency_s - queue_s - run_s) * 1e3,
        "service.broker_dispatches": sum(p["dispatches"] for p in phases[True]),
        "service.cache_hits": sum(p["cache_hits"] for p in phases[True]) / n,
        "obligations.build_s": seconds("obligations.build"),
        "obligations.count": count("obligations.count"),
        "checker.init_s": seconds("checker.init"),
        "cache.key_s": seconds("cache.key"),
        "cache.get_s": seconds("cache.get"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.stores": count("cache.stores"),
        "trace.overhead_ratio": rate(phases[True]) / rate(phases[False]),
        "trace.uncovered_share": max(0.0, 1.0 - (queue_s + run_s) / latency_s),
    }
