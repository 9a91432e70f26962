"""The regression corpus: every failing fuzz case, replayed forever.

Each discovered failure — an unsound minted rule with a concrete
miscompilation, an axiom misproof — is shrunk
and persisted as one JSON file in the repository-level ``corpus/``
directory.  ``tests/test_fuzz_corpus.py`` replays every entry on every test
run, so a fixed bug stays fixed and a known-unsound rule stays rejected.

Entry schema (version 1)::

    {
      "schema": 1,
      "kind": "unsound-rule" | "axiom-misproof",
      "found_by": "<campaign>",
      "seed": <int>,
      "digest": "<sha256 of the rule, or of the program text>",
      "note": "<human-readable one-liner>",
      "data": { ... kind-specific payload ... }
    }

Replay semantics:

* ``unsound-rule`` — the checker must still *reject* the rule, and the
  stored original/transformed program pair must still miscompile on the
  stored argument (both halves of the differential verdict).
* ``axiom-misproof`` — the axiom oracle must report **zero** misproofs on
  the stored program/argument (the axiom bug must stay fixed).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SCHEMA = 1

#: default repository-level corpus directory (next to src/, tests/).
DEFAULT_CORPUS_DIR = Path(__file__).resolve().parents[3] / "corpus"


@dataclass
class CorpusEntry:
    kind: str
    found_by: str
    seed: int
    digest: str
    note: str
    data: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "found_by": self.found_by,
            "seed": self.seed,
            "digest": self.digest,
            "note": self.note,
            "data": self.data,
        }

    @staticmethod
    def from_json(data: Dict) -> "CorpusEntry":
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unknown corpus schema {data.get('schema')!r}")
        return CorpusEntry(
            kind=data["kind"],
            found_by=data["found_by"],
            seed=data["seed"],
            digest=data["digest"],
            note=data["note"],
            data=data["data"],
        )

    @property
    def filename(self) -> str:
        return f"{self.kind}-{self.digest[:16]}.json"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_entry(corpus_dir: os.PathLike, entry: CorpusEntry) -> Path:
    """Write one entry (idempotent: the digest names the file)."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / entry.filename
    path.write_text(json.dumps(entry.to_json(), indent=2, sort_keys=True) + "\n")
    return path


def load_entries(corpus_dir: os.PathLike) -> List[Tuple[Path, CorpusEntry]]:
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return []
    out = []
    for path in sorted(directory.glob("*.json")):
        out.append((path, CorpusEntry.from_json(json.loads(path.read_text()))))
    return out


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_entry(entry: CorpusEntry, options: Optional[object] = None) -> Tuple[bool, str]:
    """Replay one entry; (ok, detail).  ``ok`` False means a regression."""
    if entry.kind == "unsound-rule":
        return _replay_unsound_rule(entry, options)
    if entry.kind == "axiom-misproof":
        return _replay_axiom_misproof(entry)
    return False, f"unknown corpus entry kind {entry.kind!r}"


def _replay_unsound_rule(entry: CorpusEntry, options) -> Tuple[bool, str]:
    from repro.api import check_optimization
    from repro.fuzz.campaign import frontier_verify_options
    from repro.fuzz.oracle import check_equivalence
    from repro.fuzz.rules import rule_from_json
    from repro.il import parse_program

    rule = rule_from_json(entry.data["rule"])
    report = check_optimization(rule, options or frontier_verify_options())
    if report.sound:
        return False, (
            f"rule {rule.name!r} is known-unsound (corpus {entry.filename}) "
            f"but the checker now proves it SOUND"
        )
    original = parse_program(entry.data["program"])
    transformed = parse_program(entry.data["transformed"])
    argument = entry.data["argument"]
    mismatch = check_equivalence(original, transformed, [argument])
    if mismatch is None:
        return False, (
            f"stored miscompilation for {rule.name!r} no longer reproduces "
            f"on main({argument})"
        )
    return True, f"{rule.name}: still rejected, miscompilation reproduces"


def _replay_axiom_misproof(entry: CorpusEntry) -> Tuple[bool, str]:
    from repro.fuzz.oracle import AxiomOracle, oracle_check_program
    from repro.il import parse_program

    program = parse_program(entry.data["program"])
    argument = entry.data["argument"]
    outcome = oracle_check_program(program, argument, AxiomOracle())
    if outcome.misproofs:
        details = "; ".join(m.description for m in outcome.misproofs[:3])
        return False, (
            f"axiom misproof regressed on corpus {entry.filename}: {details}"
        )
    return True, f"{outcome.probes} probes, no misproof"
