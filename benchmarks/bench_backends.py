"""E9 — prover-backend race: internal vs SMT-LIB vs portfolio.

The paper's architecture shipped every obligation to an external prover
(Simplify); this repository makes the external path one backend among
three (docs/BACKENDS.md).  This harness races them on a slice of the E1
obligation set and checks the two properties the portfolio design
promises:

* **agreement** — the portfolio's canonical report is byte-identical to
  the internal backend's on every row (the merge is a pure function of
  the legs' answers, and external ``sat`` never flips an internal proof);
  where a real SMT solver is installed and conclusive, the ``smtlib``
  backend's verdicts also agree with the internal prover's;
* **no-slower** — racing an external solver costs at most 10% wall-clock
  over the internal backend alone (plus a small absolute slack for
  process noise), even when the solver never answers in time.

Without a real solver on the machine the external leg is a scripted
stand-in that always answers ``unknown`` after a short delay — the
*worst useful case* for the portfolio (all overhead, no help) — and the
``smtlib`` agreement rows are skipped.
"""

import sys
import time

import pytest

from repro.api import ProverOptions, VerifyOptions
from repro.prover.backends import BackendSpec, SmtLibBackend, discover_solver
from repro.verify import SoundnessChecker
from repro.opts import ALL_OPTIMIZATIONS

#: Rows: the fast forward patterns plus one search-heavy row (cse), so the
#: overhead bound is tested on both ends of the E1 time range.
_ROW_NAMES = ["constProp", "constFold", "branchFold", "selfAssignRemoval", "cse"]
_ROWS = [o for o in ALL_OPTIMIZATIONS if o.name in _ROW_NAMES]

_PROVER = ProverOptions(timeout_s=120.0)

_INTERNAL = {}   # name -> (elapsed_s, canonical)
_PORTFOLIO = {}  # name -> (elapsed_s, canonical)
_SMTLIB = {}     # name -> (proved_obligations, conclusive, agree)
_SESSION = {}    # name -> row dict (warm vs per-query solver processes)
_SOLVER = {"cmd": None, "real": False}


@pytest.fixture(scope="module")
def solver_cmd(tmp_path_factory):
    """A real solver when installed, else the always-unknown stand-in."""
    cmd = discover_solver()
    if cmd is not None:
        _SOLVER.update(cmd=cmd, real=True)
        return cmd
    script = tmp_path_factory.mktemp("fake-solver") / "unknown.py"
    script.write_text(
        "import sys, time\n"
        "for raw in sys.stdin:\n"
        "    line = raw.strip()\n"
        "    if line.startswith('(check-sat'):\n"
        "        time.sleep(0.05)\n"
        "        print('unknown', flush=True)\n"
        "    elif line.startswith('(echo'):\n"
        "        print(line.split('\"')[1], flush=True)\n"
        "    elif line.startswith('(exit'):\n"
        "        break\n"
    )
    cmd = (sys.executable, str(script))
    _SOLVER.update(cmd=cmd, real=False)
    return cmd


def _run(options, opt):
    checker = SoundnessChecker(options=options)
    start = time.monotonic()
    report = checker.check_optimization(opt)
    return time.monotonic() - start, report


@pytest.mark.parametrize("opt", _ROWS, ids=lambda o: o.name)
def test_internal_row(benchmark, opt):
    out = {}

    def run():
        out["result"] = _run(VerifyOptions(prover=_PROVER), opt)

    benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed, report = out["result"]
    assert report.sound, report.summary()
    _INTERNAL[opt.name] = (elapsed, report.canonical())


@pytest.mark.parametrize("opt", _ROWS, ids=lambda o: o.name)
def test_portfolio_row(benchmark, solver_cmd, opt):
    options = VerifyOptions(
        backend="portfolio", solver_cmd=solver_cmd, prover=_PROVER
    )
    out = {}

    def run():
        out["result"] = _run(options, opt)

    benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed, report = out["result"]
    assert report.sound, report.summary()
    _PORTFOLIO[opt.name] = (elapsed, report.canonical())


@pytest.mark.parametrize("opt", _ROWS, ids=lambda o: o.name)
def test_smtlib_agreement_row(opt):
    """Where the external solver is conclusive, it agrees with the internal
    prover.  Needs a real solver: the stand-in is never conclusive."""
    cmd = discover_solver()
    if cmd is None:
        pytest.skip("no SMT solver installed")
    backend = SmtLibBackend(
        BackendSpec(name="smtlib", solver_cmd=cmd, solver_timeout_s=120.0),
        _PROVER.to_config(),
    )
    from repro.cobalt.labels import standard_registry
    from repro.verify.obligations import ObligationBuilder

    obligations = ObligationBuilder(standard_registry()).forward_obligations(
        opt.pattern
    ) if opt.pattern.__class__.__name__ == "ForwardPattern" else None
    if obligations is None:
        pytest.skip("agreement row covers forward patterns")
    proved = conclusive = 0
    for ob in obligations:
        got, was_conclusive, _context = backend.run_cases(ob)
        if was_conclusive:
            conclusive += 1
            # every row here is internally proven sound, so a conclusive
            # external verdict must be a proof, never a countermodel
            assert got, f"{opt.name}/{ob.name}: solver contradicts internal proof"
            proved += 1
    _SMTLIB[opt.name] = (proved, conclusive, True)


@pytest.fixture(scope="module")
def stdin_solver(tmp_path_factory):
    """A scripted solver speaking the stdin contract.

    The session rows compare how many queries one solver process serves,
    not solver strength, so they always run against this deterministic
    stand-in: it answers ``unsat`` to every ``(check-sat)``.  The
    per-query cost of a fresh process is the interpreter spawn itself —
    exactly the overhead a warm process amortizes."""
    script = tmp_path_factory.mktemp("stdin-solver") / "unsat.py"
    script.write_text(
        "import sys\n"
        "for raw in sys.stdin:\n"
        "    line = raw.strip()\n"
        "    if line.startswith('(check-sat'):\n"
        "        print('unsat', flush=True)\n"
        "    elif line.startswith('(echo'):\n"
        "        print(line.split('\"')[1], flush=True)\n"
        "    elif line.startswith('(exit'):\n"
        "        break\n"
    )
    return (sys.executable, str(script))


@pytest.mark.parametrize("opt", _ROWS, ids=lambda o: o.name)
def test_session_row(benchmark, stdin_solver, opt):
    """E9 session rows: one warm process (``max_session_queries=0``) vs a
    fresh process per query (``1``, the default), same verdicts."""
    row = {"optimization": opt.name}
    canonical = {}

    def leg(queries: int):
        options = VerifyOptions(
            backend="smtlib",
            solver_cmd=stdin_solver,
            max_session_queries=queries,
            prover=_PROVER,
        )
        checker = SoundnessChecker(options=options)
        start = time.monotonic()
        report = checker.check_optimization(opt)
        elapsed = time.monotonic() - start
        session = checker.backend.session
        stats = dict(
            elapsed_s=elapsed, spawns=session.spawns, queries=session.queries
        )
        canonical[queries] = report.canonical()
        checker.backend.close()
        return stats

    out = {}

    def run():
        out["warm"] = leg(0)

    benchmark.pedantic(run, rounds=1, iterations=1)
    per_query = leg(1)
    warm = out["warm"]
    assert canonical[0] == canonical[1], (
        f"{opt.name}: warm and per-query process reports disagree"
    )
    assert warm["spawns"] == 1, "a healthy warm process is never respawned"
    assert warm["queries"] == per_query["queries"] == per_query["spawns"]
    row.update(
        warm_s=round(warm["elapsed_s"], 4),
        per_query_s=round(per_query["elapsed_s"], 4),
        warm_spawns=warm["spawns"],
        per_query_spawns=per_query["spawns"],
        queries=warm["queries"],
    )
    _SESSION[opt.name] = row


def test_yy_session_discipline():
    """A warm process strictly beats a process per query on spawns and time."""
    assert _SESSION, "run the session row benchmarks first"
    warm_spawns = sum(r["warm_spawns"] for r in _SESSION.values())
    per_query_spawns = sum(r["per_query_spawns"] for r in _SESSION.values())
    assert warm_spawns < per_query_spawns, (
        f"warm processes spawned {warm_spawns} vs {per_query_spawns} "
        f"per query — amortization is broken"
    )
    warm_total = sum(r["warm_s"] for r in _SESSION.values())
    per_query_total = sum(r["per_query_s"] for r in _SESSION.values())
    assert warm_total < per_query_total, (
        f"warm processes took {warm_total:.2f}s vs {per_query_total:.2f}s "
        f"per query — the warm process is not paying for itself"
    )


def test_yy_portfolio_overhead():
    """The headline assertion: portfolio ≤ 1.1× internal wall time."""
    assert set(_INTERNAL) == set(_PORTFOLIO), "run the row benchmarks first"
    for name, (_, internal_canonical) in _INTERNAL.items():
        assert _PORTFOLIO[name][1] == internal_canonical, (
            f"{name}: portfolio and internal reports disagree"
        )
    internal_total = sum(t for t, _ in _INTERNAL.values())
    portfolio_total = sum(t for t, _ in _PORTFOLIO.values())
    # 10% relative + 1s absolute slack (process noise on tiny rows)
    assert portfolio_total <= internal_total * 1.1 + 1.0, (
        f"portfolio {portfolio_total:.2f}s vs internal {internal_total:.2f}s "
        f"— the race is not free"
    )


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert _INTERNAL and _PORTFOLIO
    from _report import emit

    solver = " ".join(_SOLVER["cmd"] or ("-",))
    kind = "real solver" if _SOLVER["real"] else "always-unknown stand-in"
    lines = ["=== E9: prover-backend race (internal vs portfolio) ==="]
    lines.append(f"external leg: {solver} ({kind})")
    lines.append(f"{'optimization':24s} {'internal':>9s} {'portfolio':>10s} {'agree':>6s}")
    for name in sorted(_INTERNAL):
        internal_t, internal_c = _INTERNAL[name]
        portfolio_t, portfolio_c = _PORTFOLIO[name]
        agree = "yes" if internal_c == portfolio_c else "NO"
        lines.append(
            f"{name:24s} {internal_t:8.2f}s {portfolio_t:9.2f}s {agree:>6s}"
        )
    internal_total = sum(t for t, _ in _INTERNAL.values())
    portfolio_total = sum(t for t, _ in _PORTFOLIO.values())
    ratio = portfolio_total / internal_total if internal_total else float("nan")
    lines.append(
        f"total: internal {internal_total:.2f}s, portfolio "
        f"{portfolio_total:.2f}s ({ratio:.2f}x; bound 1.10x + 1s slack)"
    )
    if _SMTLIB:
        lines.append("")
        lines.append("=== smtlib vs internal (conclusive verdicts agree) ===")
        for name, (proved, conclusive, _) in sorted(_SMTLIB.items()):
            lines.append(
                f"{name:24s} {proved}/{conclusive} conclusive obligations "
                f"proved (agrees with internal)"
            )
    else:
        lines.append("smtlib agreement rows skipped: no SMT solver installed")
    if _SESSION:
        lines.append("")
        lines.append(
            "=== max_session_queries 0 (warm) vs 1 (per query), "
            "scripted stdin stand-in ==="
        )
        lines.append(
            f"{'optimization':24s} {'warm':>9s} {'per-query':>10s} "
            f"{'spawns':>13s} {'queries':>8s}"
        )
        for name in sorted(_SESSION):
            row = _SESSION[name]
            lines.append(
                f"{name:24s} {row['warm_s']:8.2f}s {row['per_query_s']:9.2f}s "
                f"{row['warm_spawns']:5d} vs {row['per_query_spawns']:4d} "
                f"{row['queries']:8d}"
            )
        warm_total = sum(r["warm_s"] for r in _SESSION.values())
        per_query_total = sum(r["per_query_s"] for r in _SESSION.values())
        lines.append(
            f"total: warm {warm_total:.2f}s "
            f"({sum(r['warm_spawns'] for r in _SESSION.values())} spawns), "
            f"per query {per_query_total:.2f}s "
            f"({sum(r['per_query_spawns'] for r in _SESSION.values())} spawns)"
        )
    emit(
        "E9_backend_race",
        "\n".join(lines),
        rows=[
            dict(
                optimization=name,
                internal_s=round(_INTERNAL[name][0], 4),
                portfolio_s=round(_PORTFOLIO[name][0], 4),
                agree=_INTERNAL[name][1] == _PORTFOLIO[name][1],
                **{
                    k: v
                    for k, v in _SESSION.get(name, {}).items()
                    if k != "optimization"
                },
            )
            for name in sorted(_INTERNAL)
        ],
        config=dict(
            external_leg=solver,
            real_solver=_SOLVER["real"],
            prover_timeout_s=_PROVER.timeout_s,
            rows=sorted(_INTERNAL),
        ),
    )
