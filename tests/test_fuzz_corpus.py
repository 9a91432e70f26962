"""Replay the fuzzing regression corpus (``corpus/`` at the repo root).

Every failure a fuzz campaign ever found lives here, shrunk and
content-addressed; replaying it on every test run pins the fix forever:

* ``unsound-rule-*`` — the checker must still reject the rule AND the
  stored program pair must still miscompile on the stored argument;
* ``axiom-misproof-*`` — the axiom oracle must report zero misproofs;
"""

import pytest

from repro.fuzz import DEFAULT_CORPUS_DIR, load_entries, replay_entry

ENTRIES = load_entries(DEFAULT_CORPUS_DIR)


def test_corpus_exists_and_is_wellformed():
    assert ENTRIES, f"no corpus entries found in {DEFAULT_CORPUS_DIR}"
    for path, entry in ENTRIES:
        assert path.name == entry.filename, (
            f"{path.name} does not match its content digest "
            f"(expected {entry.filename})"
        )
        assert entry.kind in ("unsound-rule", "axiom-misproof")


@pytest.mark.parametrize(
    "path,entry", ENTRIES, ids=[p.name for p, _ in ENTRIES]
)
def test_replay(path, entry):
    ok, detail = replay_entry(entry)
    assert ok, f"{path.name}: {detail}"
