"""A solver-command shim over the ``z3-solver`` Python bindings.

``pip install z3-solver`` ships ``libz3`` plus Python bindings but no
``z3`` executable on PATH.  This module makes that installation usable as
an external solver command::

    python -m repro.prover.backends.z3shim

It meets the external-solver contract of
:mod:`repro.prover.backends.smtlib`: it reads SMT-LIB2 on stdin, one
command per line, answers ``(check-sat)`` with a verdict token and
``(get-model)`` with the model, replays ``(echo "…")`` fences verbatim,
and maps ``(push 1)``/``(pop 1)`` onto the solver's own scopes.  Backend
discovery (:func:`repro.prover.backends.base.discover_solver`) falls back
to this shim when no solver binary is found but ``import z3`` works.
"""

from __future__ import annotations

import sys


def _serve() -> int:
    """The stdin/stdout command loop.

    Declarations and assertions are buffered per push scope and flushed
    into the z3 solver at each ``(check-sat)`` (z3py unifies symbols by
    name and sort across parses, so re-parsing the in-scope declaration
    text per flush is sound); ``push``/``pop`` map onto the solver's own
    scopes, so popped assertions really leave the solver."""
    try:
        import z3
    except Exception as exc:
        print(f"z3shim: z3 bindings unavailable: {exc}", file=sys.stderr)
        return 3
    solver = z3.Solver()
    #: one frame per open scope: [declaration lines, pending assert lines]
    frames = [[[], []]]

    def flush() -> None:
        asserts = []
        for frame in frames:
            asserts.extend(frame[1])
            frame[1] = []
        if not asserts:
            return
        decls = []
        for frame in frames:
            decls.extend(frame[0])
        solver.from_string("\n".join(decls + asserts))

    for raw in sys.stdin:
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        try:
            if line.startswith("(push"):
                flush()
                solver.push()
                frames.append([[], []])
            elif line.startswith("(pop"):
                solver.pop()
                if len(frames) > 1:
                    frames.pop()
            elif line.startswith("(check-sat"):
                flush()
                result = solver.check()
                if result == z3.unsat:
                    print("unsat", flush=True)
                elif result == z3.sat:
                    print("sat", flush=True)
                else:
                    print("unknown", flush=True)
            elif line.startswith("(get-model"):
                try:
                    print(solver.model(), flush=True)
                except z3.Z3Exception:
                    print('(error "no model")', flush=True)
            elif line.startswith("(echo"):
                first, last = line.find('"'), line.rfind('"')
                print(line[first + 1:last] if 0 <= first < last else "",
                      flush=True)
            elif line.startswith("(exit"):
                return 0
            elif line.startswith(("(set-logic", "(set-option")):
                continue
            elif line.startswith("(declare-"):
                frames[-1][0].append(line)
            else:  # assertions and anything parseable
                frames[-1][1].append(line)
        except z3.Z3Exception as exc:
            print(f'(error "z3shim: {exc}")', flush=True)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["--version"]:
        try:
            import z3

            print(f"z3shim {z3.get_version_string()}")
            return 0
        except Exception:
            print("z3shim (z3 bindings unavailable)")
            return 1
    if argv:
        print("usage: python -m repro.prover.backends.z3shim [--version]",
              file=sys.stderr)
        return 2
    return _serve()


if __name__ == "__main__":
    raise SystemExit(main())
