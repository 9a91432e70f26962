"""Shared pieces of the benchmark: known answers, seeded draws, statistics,
provenance and the result line.

Nothing here imports :mod:`repro` at module level, so the statistics and
draw helpers stay testable (and the benchmark fails cleanly) in a tree
that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import random
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for cache directories and trace records (git-ignored).
WORK = ROOT / ".perfbench-work"

# ---------------------------------------------------------------------------
# Known answers (paper sections 4 and 6)
# ---------------------------------------------------------------------------

#: The shipped suite, in ``repro.opts`` order; every item must be SOUND.
SHIPPED_ANALYSES = ("taintedness", "constValue")
SHIPPED_OPTIMIZATIONS = (
    "constProp", "constPropPT", "copyProp", "constFold", "branchFold",
    "constBranch", "cse", "loadElim", "deadAssignElim", "partialDaeSink",
    "preDuplicate", "selfAssignRemoval", "licmDuplicate",
    "addZeroRight", "addZeroLeft", "subZero", "mulOneRight", "mulOneLeft",
    "mulZeroRight", "mulZeroLeft", "divOne",
)
#: The seeded-bug variants of ``repro.opts.buggy``; every one must be REJECTED.
BUGGY_OPTIMIZATIONS = (
    "buggyConstPropNoPointers", "buggyLoadElimDirectAssign",
    "buggyDaeNoUseCheck", "buggyCopyPropNoTargetCheck",
    "buggyCseSelfReferential", "buggyConstPropWrongWitness",
    "buggyAssignRemovalOverbroad", "buggyPreDuplicateNoUnchanged",
    "buggyConstFoldWrongResult",
)
#: Paper section 6: the redundant-load bug is caught by obligation F2.
REQUIRED_FAILED_OBLIGATION = {"buggyLoadElimDirectAssign": "F2"}


def verdict_error(name: str, sound: bool, failed: Sequence[str]) -> Optional[str]:
    """Why a verdict disagrees with the known answer, or None when it agrees."""
    if name in BUGGY_OPTIMIZATIONS:
        if sound:
            return f"{name}: seeded bug was proven SOUND"
        needed = REQUIRED_FAILED_OBLIGATION.get(name)
        if needed is not None and needed not in failed:
            return f"{name}: expected failure at {needed}, failed at {list(failed)}"
        return None
    if name in SHIPPED_ANALYSES or name in SHIPPED_OPTIMIZATIONS:
        return None if sound else f"{name}: shipped item was REJECTED"
    return f"{name}: no known answer"


# ---------------------------------------------------------------------------
# Seeded draws (the program only ever sees their results)
# ---------------------------------------------------------------------------


def cold_item_order(seed: int, pass_index: int = 0) -> List[str]:
    """Shipped plus buggy optimizations in a seed-permuted order.

    Items share obligations, and within a pass whichever comes first pays
    for the shared proofs, so the order moves per-item latencies; each pass
    of a run takes its own permutation to average that out."""
    names = list(SHIPPED_OPTIMIZATIONS + BUGGY_OPTIMIZATIONS)
    random.Random(f"verify-order-{seed}-{pass_index}").shuffle(names)
    return names


#: Engine procedure classes: (body statements, pointers, branches).  Every
#: block of procedures holds each class once, so a seed changes the
#: programs but not the mix of sizes, pointer use and branch density.
ENGINE_CLASSES = tuple(
    (body, pointers, max(1, body // density))
    for body in (12, 24, 36, 48)
    for pointers in (False, True)
    for density in (12, 4)
)
#: Arguments each procedure is interpreted on.
ENGINE_ARGS_PER_PROC = 4


def engine_block_specs(seed: int, block: int) -> List[dict]:
    """The generator settings of block ``block``: one per class, shuffled.

    Each spec carries its own generator seed and the interpreter arguments,
    so block ``k`` is the same for a given seed however many blocks a run
    reaches."""
    rng = random.Random(f"engine-{seed}-{block}")
    classes = list(ENGINE_CLASSES)
    rng.shuffle(classes)
    specs = []
    for body, pointers, branches in classes:
        specs.append({
            "num_stmts": body,
            "allow_pointers": pointers,
            "num_branches": branches,
            "gen_seed": rng.getrandbits(48),
            "args": [rng.randint(-4, 9) for _ in range(ENGINE_ARGS_PER_PROC)],
        })
    return specs


#: Suite-subset requests per daemon request pool, by subset size: they
#: add up to twice the 23 shipped items.
DAEMON_SUBSET_SIZES = (1, 2, 3, 4) * 4 + (2, 4)


def daemon_requests(seed: int, blocks: Sequence[str]) -> List[dict]:
    """The daemon-warm request pool: seeded suite subsets plus every block.

    The subsets cut two seeded orders of the shipped items, laid end to
    end, into slices of ``DAEMON_SUBSET_SIZES``, so every item is asked
    for twice in every pool and seeds change only the grouping: a pool's
    work does not depend on the seed.  A subset request names its items
    explicitly under both ``analyses`` and ``optimizations`` (an omitted
    list would mean "all")."""
    rng = random.Random(f"daemon-{seed}")
    names = list(SHIPPED_ANALYSES + SHIPPED_OPTIMIZATIONS)
    while True:
        stream = rng.sample(names, len(names)) + rng.sample(names, len(names))
        ends = list(itertools.accumulate(DAEMON_SUBSET_SIZES))
        subsets = [stream[end - size:end] for size, end in zip(DAEMON_SUBSET_SIZES, ends)]
        if all(len(set(picked)) == len(picked) for picked in subsets):
            break
    pool: List[dict] = []
    for picked in subsets:
        pool.append({
            "analyses": [n for n in picked if n in SHIPPED_ANALYSES],
            "optimizations": [n for n in picked if n not in SHIPPED_ANALYSES],
        })
    for block in blocks:
        pool.append({"source": block})
    return pool


def client_order(seed: int, client: int, pool_size: int) -> List[int]:
    """The order in which daemon client ``client`` walks the request pool."""
    order = list(range(pool_size))
    random.Random(f"client-{seed}-{client}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or None when fewer than ``MIN_BEYOND`` samples
    lie strictly beyond it."""
    if not samples:
        return None
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= MIN_BEYOND else None


def min_samples_for(q: float) -> int:
    """The fewest distinct samples whose ``q`` percentile has ``MIN_BEYOND``
    samples beyond it."""
    n = MIN_BEYOND + 1
    while n - 1 - int(q * (n - 1)) < MIN_BEYOND:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


class Tally:
    """Attempted and failed operations of the measured phase, plus the
    named check failures of the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_checks = 0
        self.problems: List[str] = []

    def item(self, error: Optional[str]) -> None:
        """Count one measured operation; ``error`` None means it succeeded."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problem(error)

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """A whole-run check (determinism, stats deltas); failing it makes
        the run incorrect without being an operation."""
        if not ok:
            self.problem(message)
            self.failed_checks += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.failed_checks


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, dict]:
    """``latency_p50_ms``/``latency_p90_ms`` with their sample counts; a
    percentile without ``MIN_BEYOND`` samples beyond it is left out."""
    out: Dict[str, dict] = {}
    for name, q in (("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)):
        value = tail_percentile(latencies_s, q)
        if value is not None:
            out[name] = {"value": value * 1e3, "unit": "ms", "samples": len(latencies_s)}
    return out


# ---------------------------------------------------------------------------
# Provenance and process facts
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size of another live process, from /proc."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), so results
    from a checkout without git metadata still name the code they ran."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_state() -> Dict[str, object]:
    """HEAD and dirty flag, or nulls outside a git work tree."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if sha.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def provenance(seed: int) -> Dict[str, object]:
    out: Dict[str, object] = dict(git_state())
    out.update({
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    })
    return out


def worker_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def emit(tally: Tally, metrics: Dict[str, dict], details: dict) -> None:
    """Print the details line, then the result line (always last)."""
    details = dict(details)
    details["loadavg_end"] = list(os.getloadavg())
    details["error_rate"] = tally.error_rate
    details["problems"] = tally.problems
    print("details " + json.dumps(details, sort_keys=True, default=str))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.failed_checks,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
