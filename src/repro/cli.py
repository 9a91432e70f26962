"""Command-line interface: the extensible compiler as a tool.

Usage (also via ``python -m repro``)::

    repro-cobalt check FILE.cobalt [--infer-witness]
    repro-cobalt opt PROGRAM.il --passes constProp,deadAssignElim
                 [--iterate] [--trust] [--engine-stats]
    repro-cobalt run PROGRAM.il ARG
    repro-cobalt counterexample FILE.cobalt
    repro-cobalt [--jobs N] [--cache-dir DIR] suite
    repro-cobalt [--jobs N] [--cache-dir DIR] verify
    repro-cobalt [--jobs N] [--cache-dir DIR] serve [--host H] [--port N]
    repro-cobalt cache stats [--dir DIR]
    repro-cobalt cache gc [--dir DIR] [--drop-failures] [--max-age-days N]

* ``check`` parses every optimization/analysis block in a Cobalt source
  file and proves (or rejects) each one; with ``--infer-witness`` missing
  or failing witnesses are inferred and re-verified.
* ``opt`` optimizes an IL program with the named library passes — proving
  each pass sound first unless ``--trust`` is given.  ``--engine-stats``
  prints the engine's observability counters — fixpoint iterations,
  worklist pops, check-cache hit rate, per-phase wall time (see
  docs/ENGINE.md).
* ``run`` interprets ``main(ARG)``.
* ``counterexample`` searches for a concrete miscompilation for a rejected
  optimization (section 7).
* ``suite`` / ``verify`` verify the entire shipped optimization suite.
* ``serve`` runs the verification daemon (docs/SERVICE.md): an asyncio
  HTTP/JSON service over the same façade, proving each obligation once
  across concurrent requests through one shared proof cache.  With
  ``--cache-dir DIR`` that cache persists in DIR.

The global ``--jobs N`` flag fans proof obligations out across N worker
processes; ``--cache-dir DIR`` persists verdicts in a sharded
content-addressed store so unchanged optimizations re-verify in
milliseconds (docs/CACHING.md); to share proofs across machines, submit
jobs to one ``repro-cobalt --cache-dir DIR serve`` daemon.
``--backend internal|smtlib|portfolio`` selects the prover backend — the
in-process prover, SMT-LIB2 sent to an external solver process over stdin
(``--solver-cmd`` overrides auto-discovery of z3/cvc5), or a
per-obligation race of the two (docs/BACKENDS.md).
``--max-session-queries N`` is how many obligation cases one solver
process serves (default 1, a fresh process per case; 0 = never
recycle).  The deprecated ``--prover`` alias and the ``--prover-mode``,
``--kernel``, ``--engine``, ``--solver-session``, ``--cache-url`` and
``--cache-timeout`` switches were removed — see the migration tables in
docs/SERVICE.md, docs/CACHING.md and docs/BACKENDS.md.  ``--json`` on
``suite``, ``verify``, ``fuzz``, and ``cache stats`` emits the daemon's
versioned wire schema on stdout instead of the human table.  ``--prover-stats``
prints the prover's observability counters to stderr (see docs/PROVER.md),
including the active kernel identity and its structural-visit count, the
hash-consing metrics — intern-table size, constructor hit rate, and the
subst/pipeline memo hit rates — plus a process-global interning summary
line (docs/TERMS.md).  ``--version`` reports the package version and
whether the compiled or pure-Python flat kernel is active.

Every subcommand builds its verification configuration through
:func:`build_verify_options` into a single :class:`repro.api.VerifyOptions`
— the CLI surface and the Python façade cannot drift.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.il import ParseError, parse_program, run_program
from repro.il.interp import ExecError, OutOfFuel
from repro.il.program import ProgramError
from repro.il.printer import program_to_str
from repro.cobalt.dsl import Optimization, PureAnalysis
from repro.cobalt.engine import CobaltEngine
from repro.cobalt.labels import standard_registry
from repro.cobalt.parser import parse_blocks, split_blocks  # noqa: F401  (perfbench imports both from here)
from repro.prover import ProverConfig, ProverStats
from repro.verify import SoundnessChecker


def build_verify_options(args):
    """The one place CLI flags become a :class:`repro.api.VerifyOptions`.

    Every verifying subcommand (check, opt, suite, verify, serve) goes
    through here, so a new flag is threaded everywhere — or nowhere."""
    from repro.api import ProverOptions, VerifyOptions

    return VerifyOptions(
        backend=args.backend,
        solver_cmd=args.solver_cmd,
        solver_timeout_s=args.solver_timeout,
        max_session_queries=args.max_session_queries,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        prover=ProverOptions(timeout_s=args.timeout),
    )


def _checker(args) -> SoundnessChecker:
    return SoundnessChecker(options=build_verify_options(args))


def _emit_prover_stats(args, reports) -> None:
    """Print aggregated prover counters to stderr under ``--prover-stats``.

    The per-run table carries the intern/memo deltas attributed to proof
    search; the trailing line is the process-global interning view (whole
    pipeline, encode included)."""
    if not getattr(args, "prover_stats", False):
        return
    from repro.logic.intern import STATS as intern_stats

    total = ProverStats()
    for report in reports:
        total.merge(report.prover_stats())
    print(total.table(), file=sys.stderr)
    print(intern_stats.summary(), file=sys.stderr)


def _parse_file(path: str, parse):
    """``parse`` the text of ``path``; a malformed file exits with one
    ``FILE:LINE:COL: message`` line instead of a traceback."""
    with open(path) as f:
        text = f.read()
    try:
        return parse(text)
    except ParseError as exc:
        raise SystemExit(f"{path}:{exc.line}:{exc.col}: {exc.message}") from None
    except ProgramError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def cmd_check(args) -> int:
    items = _parse_file(args.file, parse_blocks)
    checker = _checker(args)
    failures = 0
    reports = []
    for item in items:
        if isinstance(item, PureAnalysis):
            report = checker.check_analysis(item)
            reports.append(report)
        else:
            report = checker.check_pattern(item)
            reports.append(report)
            if not report.sound and args.infer_witness:
                from repro.verify.infer import infer_and_check

                inferred, _ = infer_and_check(item, checker)
                if inferred is not None:
                    print(f"{item.name}: proved with inferred witness "
                          f"{inferred.witness}")
                    continue
        print(report.summary())
        if not report.sound:
            failures += 1
            failing = report.failed_obligations()
            if failing and failing[0].context:
                print("  counterexample context (first lines):")
                for line in failing[0].context[: args.context_lines]:
                    print(f"    | {line}")
    _emit_prover_stats(args, reports)
    return 1 if failures else 0


def cmd_opt(args) -> int:
    from repro import opts as suite

    program = _parse_file(args.file, parse_program)
    by_name = {opt.name: opt for opt in suite.ALL_OPTIMIZATIONS}
    passes = []
    for name in args.passes.split(","):
        name = name.strip()
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise SystemExit(f"unknown pass {name!r}; known passes: {known}")
        opt = by_name[name]
        if args.iterate:
            from dataclasses import replace

            opt = replace(opt, iterate=True)
        passes.append(opt)

    if not args.trust:
        checker = _checker(args)
        reports = []
        for opt in passes:
            report = checker.check_optimization(opt)
            reports.append(report)
            status = "sound" if report.sound else "REJECTED"
            print(f"[verify] {opt.name}: {status} ({report.elapsed_s:.1f}s)",
                  file=sys.stderr)
            if not report.sound:
                raise SystemExit(f"pass {opt.name} failed verification; "
                                 f"use --trust to run it anyway")
        _emit_prover_stats(args, reports)

    engine = CobaltEngine(standard_registry())
    total = 0
    for opt in passes:
        program_new = engine.run_on_program(opt, program)
        changed = sum(
            1
            for proc in program.procs
            for i in range(len(proc.stmts))
            if program_new.proc(proc.name).stmt_at(i) != proc.stmt_at(i)
        )
        print(f"[{opt.name}] rewrote {changed} statement(s)", file=sys.stderr)
        total += changed
        program = program_new
    print(program_to_str(program))
    if args.engine_stats:
        print(engine.stats.table(), file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    program = _parse_file(args.file, parse_program)
    try:
        value = run_program(program, args.arg, fuel=args.fuel)
    except ExecError as e:
        print(f"stuck: {e}", file=sys.stderr)
        return 2
    except OutOfFuel:
        print("did not terminate within the fuel budget", file=sys.stderr)
        return 3
    print(value)
    return 0


def cmd_counterexample(args) -> int:
    from repro.verify.synthesize import find_counterexample

    items = [i for i in _parse_file(args.file, parse_blocks) if not isinstance(i, PureAnalysis)]
    status = 0
    for pattern in items:
        found = find_counterexample(Optimization(pattern))
        if found is None:
            print(f"{pattern.name}: no counterexample found "
                  f"(the pattern may be sound, or need a wider search)")
        else:
            print(f"{pattern.name}: miscompilation found")
            print(found.describe())
            status = 1
    return status


def cmd_fuzz(args) -> int:
    """Run fuzzing campaigns (docs/FUZZING.md): canonical report on stdout,
    progress and summaries on stderr.

    Exit status 1 means the *verifier itself* failed fuzzing — an axiom
    misproof or a metamorphic prover disagreement.  Unsound rules in the
    frontier report are the expected output of the campaign, not an error.
    """
    from dataclasses import replace

    from repro.fuzz import (
        DEFAULT_CORPUS_DIR,
        FRONTIER_PROVER_OPTIONS,
        axiom_campaign,
        frontier_campaign,
        metamorphic_campaign,
    )

    base = build_verify_options(args)
    # Campaign verdicts must be byte-identical across machines and --jobs
    # settings, so the prover budget is the fixed counter-only one; only the
    # backend/solver/jobs/cache axes are taken from flags.
    options = replace(base, prover=FRONTIER_PROVER_OPTIONS)
    corpus_dir = None if args.no_corpus else (args.corpus_dir or str(DEFAULT_CORPUS_DIR))
    progress = None if args.quiet else (lambda m: print(m, file=sys.stderr))

    campaigns = []
    status = 0
    if args.kind in ("axioms", "all"):
        n = args.cases if args.kind == "axioms" else max(1, args.cases // 2)
        report = axiom_campaign(
            args.seed, n, corpus_dir=corpus_dir, progress=progress
        )
        campaigns.append(("axioms", report))
        print(report.summary(), file=sys.stderr)
        if not report.ok:
            status = 1
    if args.kind in ("frontier", "all"):
        n = args.cases if args.kind == "frontier" else max(1, args.cases // 4)
        report = frontier_campaign(
            args.seed, n, options=options, corpus_dir=corpus_dir,
            progress=progress,
        )
        campaigns.append(("frontier", report))
        print(report.summary(), file=sys.stderr)
    if args.kind in ("metamorphic", "all"):
        n = args.cases if args.kind == "metamorphic" else max(1, args.cases // 20)
        report = metamorphic_campaign(
            args.seed, n, options=options, corpus_dir=corpus_dir,
            progress=progress,
        )
        campaigns.append(("metamorphic", report))
        print(report.summary(), file=sys.stderr)
    if args.json:
        from repro.service.wire import dumps, envelope

        print(dumps(envelope("fuzz-report", {
            "seed": args.seed,
            "ok": status == 0,
            "campaigns": [
                {
                    "kind": kind,
                    "ok": bool(getattr(report, "ok", True)),
                    "canonical": report.canonical(),
                }
                for kind, report in campaigns
            ],
        })))
    else:
        print("\n".join(report.canonical() for _, report in campaigns))
    return status


def cmd_suite(args) -> int:
    from repro.api import verify_suite

    def show(report) -> None:
        line = (f"{report.name:24s} "
                f"{'SOUND' if report.sound else 'REJECTED':8s} "
                f"{report.elapsed_s:7.2f}s")
        # --json owns stdout (one machine-readable document); the live
        # table moves to stderr so watchers still see progress.
        print(line, file=sys.stderr if args.json else sys.stdout)

    suite_report = verify_suite(build_verify_options(args), progress=show)
    _emit_prover_stats(args, suite_report.reports)
    summary = (f"[suite] verified in {suite_report.elapsed_s:.2f}s with "
               f"{args.jobs} job(s); backend: {suite_report.backend}")
    cache = suite_report.cache
    if cache is not None:
        summary += f"; proof cache: {cache.stats} ({cache.location()})"
    print(summary, file=sys.stderr)
    if args.json:
        from repro.service.wire import dumps

        # Exactly SuiteReport.to_wire(): the CLI surface and the daemon's
        # responses are the same document (pinned by tests/test_cli.py).
        print(dumps(suite_report.to_wire()))
    return 1 if suite_report.failures() else 0


def cmd_serve(args) -> int:
    from repro.service.server import run_server

    return run_server(
        build_verify_options(args),
        host=args.host,
        port=args.port,
        max_concurrent_jobs=args.max_jobs,
        rate=args.rate,
        burst=args.burst,
    )


def cmd_cache_stats(args) -> int:
    from repro.verify.cache import SCHEMA_VERSION

    from repro.verify.cas import ShardedStore

    store = ShardedStore(args.dir, SCHEMA_VERSION)
    if args.json:
        from repro.service.wire import dumps, envelope

        print(dumps(envelope("cache-stats", {
            "location": args.dir,
            "objects": store.count(),
            "schema": SCHEMA_VERSION,
        })))
    else:
        print(f"{args.dir}: {store.count()} object(s), "
              f"schema v{SCHEMA_VERSION}")
    return 0


def cmd_cache_gc(args) -> int:
    """Drop verdicts that would never (usefully) replay again."""
    import time

    from repro.verify.cache import SCHEMA_VERSION, CachedVerdict
    from repro.verify.cas import ShardedStore

    store = ShardedStore(args.dir, SCHEMA_VERSION)
    cutoff = None
    if args.max_age_days is not None:
        cutoff = time.time() - args.max_age_days * 86400.0
    dropped = kept = 0
    for key in list(store.keys()):
        drop = False
        if cutoff is not None:
            drop = 0 < store.mtime(key) < cutoff
        if not drop and args.drop_failures:
            raw = store.get(key)
            try:
                drop = raw is not None and not CachedVerdict.from_json(raw).proved
            except (KeyError, TypeError, ValueError):
                drop = True  # unreadable entry: reclaim it
        if drop:
            store.delete(key)
            dropped += 1
        else:
            kept += 1
    print(f"[cache-gc] {args.dir}: dropped {dropped}, kept {kept}")
    return 0


def _cache_dir_arg(value: str) -> str:
    """``--cache-dir``/``--dir``: refuse file paths with the one-line hint."""
    from repro.verify.cache import check_cache_dir

    try:
        check_cache_dir(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.prover.kernels import kernel_identity

    parser = argparse.ArgumentParser(
        prog="repro-cobalt",
        description="Cobalt: write, prove, and run compiler optimizations.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro-cobalt {__version__} "
                f"(prover kernel: {kernel_identity('flat')})",
        help="print the package version and whether the compiled or "
             "pure-Python flat prover kernel is active, then exit")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="prover timeout per obligation (seconds)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="discharge proof obligations across N worker "
                             "processes (default: 1, serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        type=_cache_dir_arg,
                        help="persist proof verdicts in DIR (a sharded "
                             "content-addressed store) so unchanged "
                             "optimizations re-verify from cache")
    parser.add_argument("--backend",
                        choices=("internal", "smtlib", "portfolio"),
                        default="internal",
                        help="prover backend: the in-process prover "
                             "(default), SMT-LIB2 emission through an "
                             "external solver subprocess, or a "
                             "per-obligation race of the two; without a "
                             "usable solver the external backends degrade "
                             "to internal with a warning")
    parser.add_argument("--solver-cmd", default=None, metavar="CMD",
                        help="external solver command for "
                             "--backend smtlib/portfolio (e.g. 'z3 -smt2'); "
                             "default: auto-discover z3/cvc5/cvc4/z3py")
    parser.add_argument("--solver-timeout", type=float, default=30.0,
                        metavar="S",
                        help="hard wall-clock limit per external solver "
                             "query; overrunning solvers are killed "
                             "(default: 30s)")
    parser.add_argument("--max-session-queries", type=int, default=1,
                        metavar="N",
                        help="queries one solver process serves before it "
                             "is recycled (default: 1, a fresh process per "
                             "obligation case; 0 = never recycle); above 1 "
                             "or at 0 the prelude is asserted once and each "
                             "case runs in a push/pop scope — verdicts and "
                             "reports are identical either way")
    parser.add_argument("--prover-stats", action="store_true",
                        help="print prover observability counters (match "
                             "time, instance/dedup rates, clause wakeups, "
                             "split decisions) to stderr after verifying")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="prove optimizations in a .cobalt file")
    p.add_argument("file")
    p.add_argument("--infer-witness", action="store_true")
    p.add_argument("--context-lines", type=int, default=8)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("opt", help="optimize an IL program with library passes")
    p.add_argument("file")
    p.add_argument("--passes", required=True,
                   help="comma-separated pass names (e.g. constProp,deadAssignElim)")
    p.add_argument("--iterate", action="store_true",
                   help="run each pass to a fixpoint")
    p.add_argument("--trust", action="store_true",
                   help="skip re-verifying the passes before running them")
    p.add_argument("--engine-stats", action="store_true",
                   help="print engine observability counters (fixpoint "
                        "iterations, worklist pops, cache hit rates, "
                        "per-phase wall time) to stderr")
    p.set_defaults(fn=cmd_opt)

    p = sub.add_parser("run", help="interpret main(ARG) of an IL program")
    p.add_argument("file")
    p.add_argument("arg", type=int)
    p.add_argument("--fuel", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("counterexample",
                       help="synthesize a miscompilation for an optimization")
    p.add_argument("file")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("fuzz",
                       help="fuzz the verifier: axiom differential, rule "
                            "frontier, metamorphic prover checks")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; reports are byte-identical across "
                        "runs and --jobs settings at a fixed seed")
    p.add_argument("--cases", type=int, default=200,
                   help="campaign size: probes for --kind axioms, minted "
                        "rules for frontier/metamorphic; --kind all splits "
                        "this across the three kinds (default: 200)")
    p.add_argument("--kind",
                   choices=("axioms", "frontier", "metamorphic", "all"),
                   default="all",
                   help="which campaign to run (default: all)")
    p.add_argument("--corpus-dir", default=None, metavar="DIR",
                   help="where to persist shrunk failing cases (default: "
                        "the repository-level corpus/ directory)")
    p.add_argument("--no-corpus", action="store_true",
                   help="do not persist discovered failures")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines on stderr")
    p.add_argument("--json", action="store_true",
                   help="emit the campaign reports as one wire-schema JSON "
                        "document on stdout (docs/SERVICE.md)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("suite", help="verify the entire shipped suite")
    p.add_argument("--json", action="store_true",
                   help="emit the suite report as wire-schema JSON on "
                        "stdout (byte-identical to the daemon's document); "
                        "the progress table moves to stderr")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("verify",
                       help="verify the entire shipped suite (alias of "
                            "'suite'; combine with --jobs/--cache-dir)")
    p.add_argument("--json", action="store_true",
                   help="emit the suite report as wire-schema JSON on "
                        "stdout (byte-identical to the daemon's document); "
                        "the progress table moves to stderr")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("serve",
                       help="run the verification daemon: HTTP/JSON over "
                            "the repro.api façade, proving each obligation "
                            "once across concurrent requests "
                            "(docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8421,
                   help="bind port (default: 8421)")
    p.add_argument("--max-jobs", type=int, default=8, metavar="N",
                   help="verification jobs running concurrently; further "
                        "submissions queue (default: 8)")
    p.add_argument("--rate", type=float, default=10.0, metavar="R",
                   help="per-client job submissions refilled per second "
                        "(default: 10)")
    p.add_argument("--burst", type=float, default=20.0, metavar="B",
                   help="per-client submission burst; 0 disables rate "
                        "limiting (default: 20)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("cache",
                       help="operate the proof cache: inspect it, "
                            "garbage-collect it")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    q = cache_sub.add_parser("stats",
                             help="object count of a cache directory")
    q.add_argument("--dir", default=".proof-cache", metavar="DIR",
                   type=_cache_dir_arg,
                   help="cache directory to inspect (default: .proof-cache)")
    q.add_argument("--json", action="store_true",
                   help="emit the stats as one wire-schema JSON document "
                        "on stdout")
    q.set_defaults(fn=cmd_cache_stats)

    q = cache_sub.add_parser("gc",
                             help="drop stale verdicts from a cache "
                                  "directory")
    q.add_argument("--dir", default=".proof-cache", metavar="DIR",
                   type=_cache_dir_arg,
                   help="cache directory to collect (default: .proof-cache)")
    q.add_argument("--drop-failures", action="store_true",
                   help="also drop unknown/failed verdicts (they are "
                        "config-scoped and rarely replay)")
    q.add_argument("--max-age-days", type=float, default=None, metavar="N",
                   help="drop verdicts older than N days")
    q.set_defaults(fn=cmd_cache_gc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader went away (``repro check F | head -1``).  Point stdout
        # at devnull so the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
