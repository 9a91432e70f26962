"""The two fuzzing campaign kinds and their canonical reports.

* :func:`axiom_campaign` — the axiom-vs-interpreter differential: random
  ground states probed against the background axioms; any fact the
  interpreter falsifies but the prover proves is a soundness bug.
* :func:`frontier_campaign` — bulk-minted candidate Cobalt rules pushed
  through the full soundness checker, with counterexample-program search
  separating *unsound* (a concrete miscompilation exists) from *unknown*
  (rejected within budget, no miscompilation found).

Determinism is the design constraint throughout: every campaign is a pure
function of ``(seed, cases)``.  Prover budgets are expressed in
rounds/instances/decisions — never wall-clock — so reports are
byte-identical across runs, machines, and ``--jobs`` settings.  Failing
cases are shrunk greedily and persisted to the ``corpus/`` regression
store (:mod:`repro.fuzz.corpus`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import ProverOptions, VerifyOptions
from repro.cobalt.dsl import Optimization
from repro.fuzz.corpus import CorpusEntry, save_entry, text_digest
from repro.fuzz.oracle import (
    AxiomOracle,
    OracleFinding,
    OracleOutcome,
    oracle_check_program,
)
from repro.fuzz.rules import RuleMinter, rule_digest, rule_to_json
from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.il.printer import program_to_str
from repro.il.program import Program, ProgramError
from repro.logic.formulas import Formula
from repro.verify.checker import SoundnessChecker

Progress = Optional[Callable[[str], None]]

#: Deterministic counter-only budget for campaign-scale verification.  The
#: timeout is a never-fires backstop: wall-clock limits would make verdicts
#: (and thus reports) machine-dependent.
FRONTIER_PROVER_OPTIONS = ProverOptions(
    timeout_s=600.0,
    max_rounds=3,
    max_instances=3_000,
    max_decisions=30_000,
)


def frontier_verify_options(
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> VerifyOptions:
    """Checker options for campaign verification (deterministic budget)."""
    return VerifyOptions(
        jobs=jobs,
        cache_dir=cache_dir,
        prover=FRONTIER_PROVER_OPTIONS,
    )


def _emit(progress: Progress, message: str) -> None:
    if progress is not None:
        progress(message)


# ---------------------------------------------------------------------------
# (a) axiom-vs-interpreter differential
# ---------------------------------------------------------------------------

#: Program shapes cycled through by the axiom campaign; pointer-enabled
#: configurations exercise the heap/aliasing axioms (W1–W6, npt).
_AXIOM_CONFIGS = (
    GeneratorConfig(num_stmts=8, num_vars=3),
    GeneratorConfig(num_stmts=10, num_vars=4, allow_pointers=True),
    GeneratorConfig(num_stmts=12, num_vars=4, num_branches=3),
    GeneratorConfig(num_stmts=10, num_vars=3, allow_pointers=True, allow_division=True),
)

_AXIOM_ARGS = (0, 1, -1, 3, 7)


@dataclass
class AxiomReport:
    """Canonical outcome of one axiom-differential campaign."""

    seed: int
    cases: int
    programs: int = 0
    probes: int = 0
    true_proved: int = 0
    true_unproved: int = 0
    false_rejected: int = 0
    misproofs: List[OracleFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.misproofs

    def canonical(self) -> str:
        lines = [
            f"fuzz-axioms seed={self.seed} cases={self.cases}",
            f"programs={self.programs} probes={self.probes} "
            f"true_proved={self.true_proved} true_unproved={self.true_unproved} "
            f"false_rejected={self.false_rejected} misproofs={len(self.misproofs)}",
        ]
        for finding in self.misproofs:
            lines.append(f"MISPROOF [{finding.family}] {finding.description}")
        return "\n".join(lines)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.misproofs)} MISPROOF(S)"
        return (
            f"[fuzz-axioms] {status}: {self.probes} probes over "
            f"{self.programs} programs (proved {self.true_proved} true facts, "
            f"{self.true_unproved} unproved = incompleteness, rejected "
            f"{self.false_rejected} false facts)"
        )


def _shrink_misproof_program(
    program: Program, argument: int, oracle: AxiomOracle
) -> Program:
    """Greedy statement deletion while the oracle still reports a misproof.

    Mirrors :func:`repro.verify.synthesize.shrink_counterexample`, with the
    axiom oracle standing in for the differential interpreter check.
    """
    from repro.verify.synthesize import _delete_stmt

    def misbehaves(candidate: Program) -> bool:
        return bool(
            oracle_check_program(candidate, argument, oracle).misproofs
        )

    current = program
    improved = True
    while improved:
        improved = False
        proc = current.main
        for index in range(len(proc.stmts) - 1):  # keep the final return
            candidate_proc = _delete_stmt(proc, index)
            if candidate_proc is None:
                continue
            candidate = current.with_proc(candidate_proc)
            try:
                candidate.validate()
            except ProgramError:
                continue
            if misbehaves(candidate):
                current = candidate
                improved = True
                break
    return current


def axiom_campaign(
    seed: int,
    cases: int,
    *,
    corpus_dir: Optional[object] = None,
    extra_axioms: Sequence[Formula] = (),
    progress: Progress = None,
) -> AxiomReport:
    """Probe ``cases`` ground facts sampled from random program traces.

    ``extra_axioms`` exist for the subsystem's own tests: injecting a
    known-bad axiom must surface misproofs (see ``tests/test_fuzz.py``).
    """
    oracle = AxiomOracle(extra_axioms=tuple(extra_axioms))
    report = AxiomReport(seed=seed, cases=cases)
    index = 0
    while report.probes < cases:
        config = _AXIOM_CONFIGS[index % len(_AXIOM_CONFIGS)]
        argument = _AXIOM_ARGS[index % len(_AXIOM_ARGS)]
        generator = ProgramGenerator(config, seed=seed * 1_000_003 + index)
        program = Program((generator.gen_proc(),))
        outcome = oracle_check_program(
            program, argument, oracle, max_probes=cases - report.probes
        )
        report.programs += 1
        report.probes += outcome.probes
        report.true_proved += outcome.true_proved
        report.true_unproved += outcome.true_unproved
        report.false_rejected += outcome.false_rejected
        if outcome.misproofs:
            _emit(
                progress,
                f"fuzz-axioms: MISPROOF on program {index}: "
                f"{outcome.misproofs[0].description}",
            )
            shrunk = _shrink_misproof_program(program, argument, oracle)
            shrunk_outcome = oracle_check_program(shrunk, argument, oracle)
            findings = shrunk_outcome.misproofs or outcome.misproofs
            report.misproofs.extend(findings)
            if corpus_dir is not None:
                program_text = program_to_str(shrunk)
                save_entry(
                    corpus_dir,
                    CorpusEntry(
                        kind="axiom-misproof",
                        found_by="axiom_campaign",
                        seed=seed,
                        digest=text_digest(f"{program_text}\n@{argument}"),
                        note=findings[0].description,
                        data={"program": program_text, "argument": argument},
                    ),
                )
        index += 1
        if index % 10 == 0:
            _emit(
                progress,
                f"fuzz-axioms: {report.probes}/{cases} probes "
                f"({report.programs} programs)",
            )
    return report


# ---------------------------------------------------------------------------
# (b) rule-frontier fuzzing
# ---------------------------------------------------------------------------


@dataclass
class RuleVerdict:
    """Classification of one minted rule."""

    index: int
    name: str
    family: str
    digest: str
    verdict: str  # "sound" | "unsound" | "unknown" | "invalid"
    detail: str = ""

    def canonical_line(self) -> str:
        line = (
            f"{self.name} family={self.family} digest={self.digest[:16]} "
            f"verdict={self.verdict}"
        )
        if self.detail:
            line += f" [{self.detail}]"
        return line


@dataclass
class FrontierReport:
    """Canonical sound/unsound/unknown frontier over minted rules."""

    seed: int
    cases: int
    unique: int = 0
    verdicts: List[RuleVerdict] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {"sound": 0, "unsound": 0, "unknown": 0, "invalid": 0}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    def canonical(self) -> str:
        counts = self.counts()
        lines = [
            f"fuzz-frontier seed={self.seed} cases={self.cases} "
            f"unique={self.unique}",
            f"sound={counts['sound']} unsound={counts['unsound']} "
            f"unknown={counts['unknown']} invalid={counts['invalid']}",
        ]
        lines.extend(v.canonical_line() for v in self.verdicts)
        return "\n".join(lines)

    def summary(self) -> str:
        counts = self.counts()
        return (
            f"[fuzz-frontier] {self.cases} rules ({self.unique} unique): "
            f"{counts['sound']} sound, {counts['unsound']} unsound, "
            f"{counts['unknown']} unknown, {counts['invalid']} invalid"
        )


def _classify_rule(
    rule: object,
    checker: SoundnessChecker,
    engine: object,
) -> Tuple[str, str, Optional[object]]:
    """(verdict, detail, counterexample) for one unique rule."""
    from repro.cobalt.patterns import PatternError
    from repro.verify.synthesize import find_counterexample

    report = checker.check_pattern(rule)
    if report.error is not None:
        return "invalid", f"error: {report.error}", None
    if report.sound:
        return "sound", "", None
    failed = report.failed_obligations()
    context: List[str] = []
    for result in failed:
        context.extend(result.context)
    try:
        cex = find_counterexample(
            Optimization(rule),
            engine=engine,
            seeds=range(8),
            max_template_body=2,
            shrink=True,
            context=context,
        )
    except (PatternError, ProgramError) as exc:
        return "invalid", f"error: {str(exc).splitlines()[0]}", None
    detail = "failed: " + ", ".join(r.obligation for r in failed)
    if cex is None:
        return "unknown", detail, None
    return (
        "unsound",
        f"main({cex.argument})={cex.original_value!r} but transformed "
        f"{cex.transformed_outcome}",
        cex,
    )


def frontier_campaign(
    seed: int,
    cases: int,
    *,
    options: Optional[VerifyOptions] = None,
    corpus_dir: Optional[object] = None,
    progress: Progress = None,
) -> FrontierReport:
    """Mint ``cases`` candidate rules and map the soundness frontier.

    Rules are deduplicated by content digest before verification — the
    verdict for a digest is computed once and reported for every minted
    duplicate — so the per-rule listing always has ``cases`` lines while
    the prover works through only the unique frontier.
    """
    from repro.cobalt.engine import CobaltEngine
    from repro.cobalt.labels import standard_registry

    checker = SoundnessChecker(options=options or frontier_verify_options())
    engine = CobaltEngine(standard_registry())
    minter = RuleMinter(seed)
    rules = minter.mint_many(cases)
    report = FrontierReport(seed=seed, cases=cases)

    by_digest: Dict[str, Tuple[str, str, Optional[object]]] = {}
    for index, rule in enumerate(rules):
        digest = rule_digest(rule)
        if digest not in by_digest:
            by_digest[digest] = _classify_rule(rule, checker, engine)
            verdict, detail, cex = by_digest[digest]
            if verdict == "unsound" and cex is not None and corpus_dir is not None:
                save_entry(
                    corpus_dir,
                    CorpusEntry(
                        kind="unsound-rule",
                        found_by="frontier_campaign",
                        seed=seed,
                        digest=digest,
                        note=f"{rule.name}: {detail}",
                        data={
                            "rule": rule_to_json(rule),
                            "program": program_to_str(cex.original),
                            "transformed": program_to_str(cex.transformed),
                            "argument": cex.argument,
                        },
                    ),
                )
            if (len(by_digest)) % 20 == 0:
                _emit(
                    progress,
                    f"fuzz-frontier: {index + 1}/{cases} rules "
                    f"({len(by_digest)} unique so far)",
                )
        verdict, detail, _ = by_digest[digest]
        report.verdicts.append(
            RuleVerdict(
                index=index,
                name=rule.name,
                family=rule.name.split("_", 1)[1],
                digest=digest,
                verdict=verdict,
                detail=detail,
            )
        )
    report.unique = len(by_digest)
    return report
