"""Quickstart: write an optimization in Cobalt, prove it sound, run it.

This walks the paper's example 1 (constant propagation) end to end:

1. write the optimization in Cobalt's concrete syntax;
2. ask the automatic soundness checker to discharge its proof obligations
   (F1-F3) with the built-in Simplify-style prover;
3. execute it with the Cobalt engine on an input program;
4. confirm the transformed program computes the same results.

Run:  python examples/quickstart.py
"""

from repro import (
    EngineOptions,
    ProverOptions,
    VerifyOptions,
    check_optimization,
    run_optimization,
)
from repro.il import parse_program, run_program
from repro.il.printer import program_to_str

CONST_PROP = """
forward optimization constProp {
  stmt(Y := C)
  followed by
  !mayDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}
"""

PROGRAM = """
main(n) {
  decl a;
  decl b;
  decl c;
  a := 2;
  b := a;
  c := b + n;
  return c;
}
"""


def main() -> None:
    print("=== 1. The optimization, in Cobalt ===")
    print(CONST_PROP)

    # The façade accepts the Cobalt source directly; try
    # VerifyOptions(jobs=2) to spread the obligations over two processes.
    verify = VerifyOptions(prover=ProverOptions(timeout_s=90))

    print("=== 2. Automatic soundness proof ===")
    report = check_optimization(CONST_PROP, verify)
    print(report.summary())
    if not report.sound:
        raise SystemExit("optimization rejected; not running it")

    print()
    print("=== 3. Running it ===")
    program = parse_program(PROGRAM)
    print("before:")
    print(program_to_str(program, indices=True))

    result = run_optimization(
        CONST_PROP, program, engine=EngineOptions(iterate=True)
    )
    optimized = result.program
    print()
    print("after (b := a became b := 2; the paper's rule rewrites whole")
    print("variable-copy statements, not operands inside expressions):")
    print(program_to_str(optimized, indices=True))

    print()
    print("=== 4. Same behaviour ===")
    for n in (0, 1, 40):
        before = run_program(program, n)
        after = run_program(optimized, n)
        status = "ok" if before == after else "MISMATCH"
        print(f"  main({n}) = {before} -> {after}   [{status}]")


if __name__ == "__main__":
    main()
