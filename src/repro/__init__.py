"""Cobalt reproduction: automatically proving compiler optimizations correct.

This package reproduces the system of Lerner, Millstein and Chambers,
*Automatically Proving the Correctness of Compiler Optimizations* (PLDI
2003):

* :mod:`repro.il` — the C-like intermediate language and its semantics;
* :mod:`repro.logic` — first-order terms and formulas;
* :mod:`repro.prover` — a Simplify-style automatic theorem prover;
* :mod:`repro.cobalt` — the Cobalt DSL and its execution engine;
* :mod:`repro.verify` — the automatic soundness checker (obligations F1-F3
  and B1-B3 discharged by the prover);
* :mod:`repro.opts` — the paper's suite of optimizations and analyses
  written in Cobalt.

The supported programmatic surface is the :mod:`repro.api` façade,
re-exported here::

    from repro import VerifyOptions, check_optimization, verify_suite

    report = check_optimization(COBALT_SOURCE, VerifyOptions(jobs=2))
"""

__version__ = "1.1.0"


def __getattr__(name: str):
    # The façade is re-exported lazily so that ``import repro`` stays cheap
    # (and so repro.api's imports of subpackages cannot cycle back here).
    # import_module (not ``from repro import api``) avoids re-entering this
    # hook while the submodule attribute is still unbound.
    import importlib

    api = importlib.import_module("repro.api")
    if name in api.__all__:
        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    import importlib

    api = importlib.import_module("repro.api")
    return sorted(set(globals()) | set(api.__all__))
