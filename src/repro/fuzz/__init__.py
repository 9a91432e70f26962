"""Mass fuzzing and differential testing of the verifier itself.

The subsystem treats the IL interpreter as the single source of truth and
stress-tests everything above it (docs/FUZZING.md):

* :mod:`repro.fuzz.oracle` — the program-level differential oracle
  (interpret original vs. transformed) and the axiom-level oracle
  (ground-state facts the prover must agree with the interpreter on);
* :mod:`repro.fuzz.rules` — deterministic bulk minting, JSON round-trip
  and greedy shrinking of candidate Cobalt rules;
* :mod:`repro.fuzz.campaign` — the two campaign kinds behind the
  ``repro fuzz`` CLI, with byte-identical canonical reports;
* :mod:`repro.fuzz.corpus` — the persisted regression corpus replayed by
  ``tests/test_fuzz_corpus.py``.
"""

from repro.fuzz.campaign import (
    FRONTIER_PROVER_OPTIONS,
    AxiomReport,
    FrontierReport,
    RuleVerdict,
    axiom_campaign,
    frontier_campaign,
    frontier_verify_options,
)
from repro.fuzz.corpus import (
    DEFAULT_CORPUS_DIR,
    CorpusEntry,
    load_entries,
    replay_entry,
    save_entry,
)
from repro.fuzz.oracle import (
    AxiomOracle,
    DifferentialResult,
    OracleFinding,
    OracleOutcome,
    check_equivalence,
    differential_campaign,
    oracle_check_program,
    run_outcome,
)
from repro.fuzz.rules import (
    RuleMinter,
    rule_digest,
    rule_from_json,
    rule_to_json,
    shrink_rule,
)

__all__ = [
    "FRONTIER_PROVER_OPTIONS",
    "DEFAULT_CORPUS_DIR",
    "AxiomOracle",
    "AxiomReport",
    "CorpusEntry",
    "DifferentialResult",
    "FrontierReport",
    "OracleFinding",
    "OracleOutcome",
    "RuleMinter",
    "RuleVerdict",
    "axiom_campaign",
    "check_equivalence",
    "differential_campaign",
    "frontier_campaign",
    "frontier_verify_options",
    "load_entries",
    "oracle_check_program",
    "replay_entry",
    "rule_digest",
    "rule_from_json",
    "rule_to_json",
    "run_outcome",
    "save_entry",
    "shrink_rule",
]
