"""The prover's e-graph substrate (docs/KERNELS.md).

:mod:`repro.prover.kernels.flat` is the one congruence-closure/E-matching
kernel: struct-of-arrays storage where e-nodes are integer ids, optionally
compiled to a C extension via ``pip install repro[compiled]``.  Compiling
never changes verdicts, contexts, logs, or search counters — only speed —
so the kernel identity is excluded from the proof-cache fingerprint and
the prover identity verdicts are stored under.
"""

from __future__ import annotations

from repro.prover.kernels import flat as _flat
from repro.prover.kernels.flat import (
    FlatEGraph,
    FlatProgram,
    compile_trigger,
    compiled_trigger,
    flat_ematch,
)

DEFAULT_KERNEL = "flat"


def flat_is_compiled() -> bool:
    """True when the flat kernel module is a compiled extension.

    mypyc and Cython both install the compiled module as a ``.so``/``.pyd``
    that shadows the pure-Python source; checking the loaded module's file
    suffix is therefore toolchain-agnostic."""
    fname = getattr(_flat, "__file__", "") or ""
    if fname.endswith((".so", ".pyd")):
        return True
    # mypyc keeps ``__file__`` pointing at the shim .py but marks the
    # module with a compiled flag.
    return bool(getattr(_flat, "__mypyc_attrs__", None))


def kernel_identity(kernel: str = DEFAULT_KERNEL) -> str:
    """Human-readable kernel identity for --version / --prover-stats."""
    if kernel == "flat":
        return "flat/compiled" if flat_is_compiled() else "flat/pure-python"
    return f"{kernel}/unknown"


__all__ = [
    "DEFAULT_KERNEL",
    "FlatEGraph",
    "FlatProgram",
    "compile_trigger",
    "compiled_trigger",
    "flat_ematch",
    "flat_is_compiled",
    "kernel_identity",
]
