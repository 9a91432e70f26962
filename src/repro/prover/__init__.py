"""A Simplify-style automatic theorem prover.

This package is the reproduction's stand-in for the Simplify prover used by
the paper (closed-source and unavailable offline).  It implements the same
architecture Simplify exposes to the Cobalt checker:

* congruence closure over ground terms (:mod:`repro.prover.kernels.flat`)
  with free-constructor reasoning (distinctness + injectivity), disequalities,
  and ground integer arithmetic (:mod:`repro.prover.arith`);
* DPLL-style case splitting over ground clauses;
* quantifier instantiation by E-matching trigger patterns against the
  E-graph (:func:`repro.prover.kernels.flat.flat_ematch`);
* counterexample contexts on failed proofs, as Simplify returns.

The prover is refutation-based and sound: a ``PROVED`` answer means the
negated goal together with the axioms is unsatisfiable.  It is (like
Simplify) incomplete: ``UNKNOWN`` answers carry the ground context that
resisted refutation.
"""

from repro.prover.core import Prover, ProverConfig, ProverStats, Result, Status
from repro.prover.kernels import FlatEGraph

__all__ = ["FlatEGraph", "Prover", "ProverConfig", "ProverStats", "Result", "Status"]
