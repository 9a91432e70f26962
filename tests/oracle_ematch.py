"""Test oracle for E-matching: a declarative matcher.

Checks :func:`repro.prover.kernels.flat.flat_ematch` (with the trigger
programs of :func:`compile_trigger`).  Instead of compiling patterns into
an abstract machine, the oracle enumerates *every* substitution of the
pattern variables to class roots and keeps those under which each pattern
term exists in the e-graph modulo congruence: some member of some class
has the pattern's head, and its arguments' classes match the argument
patterns recursively (a numeral pattern matches the class holding that
numeral).  On small e-graphs this brute force is cheap and obviously
right.  ``tests/test_ematch.py`` compares the two binding sets.  Mutants
this catches (EXPERIMENTS.md, E12): a matcher that skips a class member
(M5).
"""

import itertools

from repro.logic.terms import App, IntConst, LVar, free_vars


def roots(eg):
    return sorted({eg.find(n) for n in range(len(eg.node_terms))})


def _matches(eg, pattern, root, binding):
    if isinstance(pattern, LVar):
        return binding[pattern.name] == root
    if isinstance(pattern, IntConst):
        return eg.class_int_value(root) == pattern.value
    for member in eg.members(root):
        term = eg.node_terms[member]
        if (
            isinstance(term, App)
            and term.fn == pattern.fn
            and len(term.args) == len(pattern.args)
            and all(
                _matches(eg, p, eg.find(eg.term_to_node[a]), binding)
                for p, a in zip(pattern.args, term.args)
            )
        ):
            return True
    return False


def declarative_ematch(eg, patterns):
    """Every ``{variable: root}`` binding under which each pattern term is
    congruent to an existing node, as a set of frozen item sets."""
    names = sorted(set().union(*(free_vars(p) for p in patterns)))
    all_roots = roots(eg)
    out = set()
    for choice in itertools.product(all_roots, repeat=len(names)):
        binding = dict(zip(names, choice))
        if all(any(_matches(eg, p, r, binding) for r in all_roots) for p in patterns):
            out.add(frozenset(binding.items()))
    return out
