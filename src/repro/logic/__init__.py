"""First-order logic substrate: terms, formulas, clausification.

Shared between the Cobalt soundness checker (which *generates* formulas
encoding proof obligations) and the Simplify-style prover (which refutes
their negations).

All constructors intern (hash-cons) into the weak global table in
:mod:`repro.logic.intern`: structurally equal nodes are the same object,
with cached hash, free variables, size, and printed form, and the
clausification pipeline is memoized per node.  docs/TERMS.md documents the
invariants; ``tests/test_interning.py`` checks them against recursive
structural walkers over the public fields.
"""

from repro.logic.terms import (
    App,
    IntConst,
    LVar,
    Term,
    free_vars,
    subst,
    term_size,
    term_str,
)
from repro.logic.formulas import (
    And,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Top,
    clausify,
    nnf,
    skolemize,
)
from repro.logic.intern import STATS as intern_stats, structural_reference

__all__ = [
    "And",
    "App",
    "Bottom",
    "Eq",
    "Exists",
    "Forall",
    "Formula",
    "Iff",
    "Implies",
    "IntConst",
    "LVar",
    "Not",
    "Or",
    "Pred",
    "Term",
    "Top",
    "clausify",
    "free_vars",
    "intern_stats",
    "nnf",
    "skolemize",
    "structural_reference",
    "subst",
    "term_size",
    "term_str",
]
