"""The external-solver oracle: SMT-LIB2 emission plus a one-shot z3 runner.

The paper shipped every proof obligation to one external prover,
Simplify.  Here the in-process prover is the only one in the shipped
path; this module lets CI cross-check its proofs against z3
(docs/PROVER.md, "External-solver oracle (CI only)").  It translates an
obligation — uninterpreted functions over one value sort, the fixed IL
axiomatization of :mod:`repro.verify.encode`, the generated label axioms
(already inlined in the goals), and the ground case-split seeds — into one
``(set-logic UF)`` script per statement-kind case, and runs each script
once in a fresh solver process with a timeout: no retries, no sessions,
no push/pop.

The mapping:

* one uninterpreted sort ``V`` carries every term (statements, states,
  environments, values — the internal prover is untyped, and so is the
  emission);
* ``App``/``LVar``/``IntConst`` become uninterpreted functions, bound
  variables, and interned numeral constants ``int$<n>``;
* ``Pred`` atoms become Bool-valued uninterpreted functions, everything
  else maps to the SMT core (``=``, ``and``, ``or``, ``not``, ``=>``,
  ``forall``, ``exists``); ``Iff`` is Bool equality;
* ``Forall`` E-matching triggers are emitted as ``:pattern`` annotations,
  so a pattern-based solver instantiates the axioms the same way the
  internal prover does;
* the E-graph's built-in theories are reified as axioms: constructor
  injectivity and pairwise distinctness for :data:`repro.verify.encode
  .CONSTRUCTORS`, numeral distinctness over the integer literals the
  script mentions, and ground arithmetic folding facts (``@plus(2,3)=5``)
  for every foldable application that occurs syntactically.

The emission is *sound for unsat*: every emitted axiom holds in the
intended IL model, so ``unsat`` on the negated goal means the obligation
is valid.  It is weaker than the internal prover on ``sat`` (a model may
exploit, say, unfolded arithmetic over instantiation-created terms), so
``sat`` is a countermodel report, not a disproof.

Formulas are hash-consed (:mod:`repro.logic.intern`), so compilation is
memoized per node: the background axioms are rendered once per process
and reused by every script.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
)
from repro.logic.terms import App, IntConst, LVar, Term
from repro.prover.arith import eval_arith

#: The single uninterpreted value sort every term lives in.
SORT = "V"

#: Characters legal in an SMT-LIB2 *simple symbol* (besides letters/digits).
_SIMPLE_EXTRA = set("~!@$%^&*_-+=<>.?/")


def smt_symbol(name: str) -> str:
    """Render ``name`` as an SMT-LIB2 symbol, quoting when necessary."""
    if name and not name[0].isdigit() and all(
        c.isalnum() or c in _SIMPLE_EXTRA for c in name
    ):
        return name
    # Quoted symbols may contain anything except ``|`` and ``\``.
    return "|" + name.replace("\\", "/").replace("|", "!") + "|"


def int_symbol(value: int) -> str:
    """The interned numeral constant for an integer literal."""
    return f"int${value}" if value >= 0 else f"int$m{-value}"


#: A function/predicate signature: (symbol, arity, is_predicate).
Sig = Tuple[str, int, bool]


@dataclass
class _Compiled:
    """One hash-consed node's rendering plus its declaration footprint."""

    sexpr: str
    sigs: FrozenSet[Sig]
    ints: FrozenSet[int]
    #: Ground arithmetic applications (rendered, folded value) found inside.
    arith: FrozenSet[Tuple[str, int]]


#: Per-process compilation memo.  Nodes are interned (pointer-equal when
#: structurally equal), so identity keying is exact and the memo is shared
#: by every emitted script.
_MEMO: Dict[int, Tuple[object, _Compiled]] = {}
_MEMO_MAX = 1 << 18


def _memo_get(node: object) -> Optional[_Compiled]:
    hit = _MEMO.get(id(node))
    if hit is not None and hit[0] is node:
        return hit[1]
    return None


def _memo_put(node: object, compiled: _Compiled) -> _Compiled:
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.clear()
    _MEMO[id(node)] = (node, compiled)
    return compiled


def _fold_ground(term: Term) -> Optional[int]:
    """The folded integer value of a ground arithmetic application."""
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, App) and term.args:
        values = []
        for a in term.args:
            v = _fold_ground(a)
            if v is None:
                return None
            values.append(v)
        return eval_arith(term.fn, values)
    return None


def compile_term(term: Term) -> _Compiled:
    cached = _memo_get(term)
    if cached is not None:
        return cached
    if isinstance(term, LVar):
        out = _Compiled(smt_symbol(term.name), frozenset(), frozenset(), frozenset())
    elif isinstance(term, IntConst):
        out = _Compiled(
            int_symbol(term.value), frozenset(), frozenset([term.value]), frozenset()
        )
    elif isinstance(term, App):
        sym = smt_symbol(term.fn)
        sigs: Set[Sig] = {(sym, len(term.args), False)}
        ints: Set[int] = set()
        arith: Set[Tuple[str, int]] = set()
        if term.args:
            parts = []
            for a in term.args:
                c = compile_term(a)
                parts.append(c.sexpr)
                sigs |= c.sigs
                ints |= c.ints
                arith |= c.arith
            sexpr = f"({sym} {' '.join(parts)})"
            folded = _fold_ground(term)
            if folded is not None:
                arith.add((sexpr, folded))
                ints.add(folded)
        else:
            sexpr = sym
        out = _Compiled(sexpr, frozenset(sigs), frozenset(ints), frozenset(arith))
    else:
        raise TypeError(f"not a term: {term!r}")
    return _memo_put(term, out)


def _compile_parts(items: Sequence) -> Tuple[List[str], Set[Sig], Set[int], Set[Tuple[str, int]]]:
    parts: List[str] = []
    sigs: Set[Sig] = set()
    ints: Set[int] = set()
    arith: Set[Tuple[str, int]] = set()
    for item in items:
        c = compile_formula(item) if _is_formula(item) else compile_term(item)
        parts.append(c.sexpr)
        sigs |= c.sigs
        ints |= c.ints
        arith |= c.arith
    return parts, sigs, ints, arith


def _is_formula(obj: object) -> bool:
    return isinstance(
        obj, (Top, Bottom, Eq, Pred, Not, And, Or, Implies, Iff, Forall, Exists)
    )


def _quantifier(head: str, node, bound_sigs: FrozenSet[Sig]) -> _Compiled:
    body = compile_formula(node.body)
    binders = " ".join(f"({smt_symbol(v)} {SORT})" for v in node.vars)
    inner = body.sexpr
    patterns: List[str] = []
    for trigger in getattr(node, "triggers", ()) or ():
        rendered: List[str] = []
        ok = True
        for pat in trigger:
            if not isinstance(pat, App) or not pat.args:
                ok = False  # a bare variable or constant is not a valid pattern
                break
            rendered.append(compile_term(pat).sexpr)
        if ok and rendered:
            patterns.append(f":pattern ({' '.join(rendered)})")
    if patterns:
        inner = f"(! {inner} {' '.join(patterns)})"
    sexpr = f"({head} ({binders}) {inner})"
    sigs = set(body.sigs) - set(bound_sigs)
    # Trigger terms only mention symbols the body already uses, but collect
    # them anyway in case a multi-pattern names an auxiliary application.
    for trigger in getattr(node, "triggers", ()) or ():
        for pat in trigger:
            if isinstance(pat, App) and pat.args:
                sigs |= set(compile_term(pat).sigs)
    sigs -= set(bound_sigs)
    return _Compiled(sexpr, frozenset(sigs), body.ints, body.arith)


def compile_formula(f: Formula) -> _Compiled:
    cached = _memo_get(f)
    if cached is not None:
        return cached
    if isinstance(f, Top):
        out = _Compiled("true", frozenset(), frozenset(), frozenset())
    elif isinstance(f, Bottom):
        out = _Compiled("false", frozenset(), frozenset(), frozenset())
    elif isinstance(f, Eq):
        parts, sigs, ints, arith = _compile_parts([f.lhs, f.rhs])
        out = _Compiled(
            f"(= {parts[0]} {parts[1]})", frozenset(sigs), frozenset(ints), frozenset(arith)
        )
    elif isinstance(f, Pred):
        sym = smt_symbol(f.name)
        parts, sigs, ints, arith = _compile_parts(list(f.args))
        sigs.add((sym, len(f.args), True))
        sexpr = f"({sym} {' '.join(parts)})" if parts else sym
        out = _Compiled(sexpr, frozenset(sigs), frozenset(ints), frozenset(arith))
    elif isinstance(f, Not):
        c = compile_formula(f.body)
        out = _Compiled(f"(not {c.sexpr})", c.sigs, c.ints, c.arith)
    elif isinstance(f, (And, Or)):
        head = "and" if isinstance(f, And) else "or"
        if not f.parts:
            out = _Compiled(
                "true" if isinstance(f, And) else "false",
                frozenset(), frozenset(), frozenset(),
            )
        elif len(f.parts) == 1:
            out = compile_formula(f.parts[0])
        else:
            parts, sigs, ints, arith = _compile_parts(list(f.parts))
            out = _Compiled(
                f"({head} {' '.join(parts)})",
                frozenset(sigs), frozenset(ints), frozenset(arith),
            )
    elif isinstance(f, Implies):
        parts, sigs, ints, arith = _compile_parts([f.hyp, f.conc])
        out = _Compiled(
            f"(=> {parts[0]} {parts[1]})",
            frozenset(sigs), frozenset(ints), frozenset(arith),
        )
    elif isinstance(f, Iff):
        parts, sigs, ints, arith = _compile_parts([f.lhs, f.rhs])
        out = _Compiled(
            f"(= {parts[0]} {parts[1]})",
            frozenset(sigs), frozenset(ints), frozenset(arith),
        )
    elif isinstance(f, (Forall, Exists)):
        bound = frozenset((smt_symbol(v), 0, False) for v in f.vars)
        out = _quantifier("forall" if isinstance(f, Forall) else "exists", f, bound)
    else:
        raise TypeError(f"not a formula: {f!r}")
    return _memo_put(f, out)


def _constructor_axioms(
    constructors: Sequence[str], arities: Dict[str, int], ints: Sequence[int]
) -> List[str]:
    """Reify the E-graph's constructor discipline as UF axioms.

    Injectivity per constructor, pairwise distinctness between constructor
    applications, and distinctness from the interned numerals (the internal
    prover treats each ``IntConst`` as its own nullary constructor)."""
    used = sorted(c for c in constructors if c in arities)
    lines: List[str] = []
    if not used:
        return lines

    def vars_for(prefix: str, n: int) -> List[str]:
        return [f"{prefix}{i}" for i in range(n)]

    def app(fn: str, names: Sequence[str]) -> str:
        sym = smt_symbol(fn)
        return f"({sym} {' '.join(names)})" if names else sym

    lines.append("; constructor discipline (E-graph built-in, reified)")
    nullary_atoms = [app(c, []) for c in used if arities[c] == 0]
    nullary_atoms += [int_symbol(v) for v in sorted(ints)]
    if len(nullary_atoms) > 1:
        lines.append(f"(assert (distinct {' '.join(nullary_atoms)}))")
    for c in used:
        n = arities[c]
        if n == 0:
            continue
        xs, ys = vars_for("x!", n), vars_for("y!", n)
        binders = " ".join(f"({v} {SORT})" for v in xs + ys)
        eq_args = " ".join(f"(= {x} {y})" for x, y in zip(xs, ys))
        conc = f"(and {eq_args})" if n > 1 else eq_args
        lines.append(
            f"(assert (forall ({binders}) "
            f"(=> (= {app(c, xs)} {app(c, ys)}) {conc})))"
        )
        if nullary_atoms:
            binders1 = " ".join(f"({v} {SORT})" for v in xs)
            distinct = " ".join(
                f"(not (= {app(c, xs)} {atom}))" for atom in nullary_atoms
            )
            body = f"(and {distinct})" if len(nullary_atoms) > 1 else distinct
            lines.append(f"(assert (forall ({binders1}) {body}))")
    for i, c in enumerate(used):
        for d in used[i + 1:]:
            n, m = arities[c], arities[d]
            if n == 0 and m == 0:
                continue  # covered by the nullary distinct
            xs, ys = vars_for("x!", n), vars_for("y!", m)
            binders = " ".join(f"({v} {SORT})" for v in xs + ys)
            lines.append(
                f"(assert (forall ({binders}) "
                f"(not (= {app(c, xs)} {app(d, ys)}))))"
            )
    return lines


# ---------------------------------------------------------------------------
# Script assembly: one complete script per obligation case
# ---------------------------------------------------------------------------


def _declarations(compiled: Sequence[_Compiled]) -> Tuple[Dict[str, Sig], Set[int], Set[Tuple[str, int]]]:
    sigs: Set[Sig] = set()
    ints: Set[int] = set()
    arith: Set[Tuple[str, int]] = set()
    for c in compiled:
        sigs |= c.sigs
        ints |= c.ints
        arith |= c.arith
    by_symbol: Dict[str, Sig] = {}
    for sig in sorted(sigs):
        prev = by_symbol.get(sig[0])
        if prev is not None and prev != sig:
            raise ValueError(
                f"symbol {sig[0]!r} used inconsistently: {prev} vs {sig}"
            )
        by_symbol[sig[0]] = sig
    return by_symbol, ints, arith


def emit_case(
    name: str,
    goal: Formula,
    *,
    seeds: Sequence[Formula] = (),
    axioms: Optional[Sequence[object]] = None,
    constructors: Optional[Sequence[str]] = None,
) -> str:
    """One complete script: logic, declarations, constructor discipline,
    ground arithmetic, the axioms (default: the full background set), the
    seeds, the negated goal, and ``(check-sat)``."""
    if axioms is None or constructors is None:
        from repro.verify.encode import CONSTRUCTORS, all_axioms

        axioms = all_axioms() if axioms is None else axioms
        constructors = sorted(CONSTRUCTORS) if constructors is None else constructors
    compiled_axioms: List[Tuple[str, _Compiled]] = []
    for ax in axioms:
        origin = ""
        if isinstance(ax, tuple):
            origin, ax = ax
        compiled_axioms.append((origin, compile_formula(ax)))
    compiled_seeds = [compile_formula(seed) for seed in seeds]
    goal_c = compile_formula(goal)
    by_symbol, ints, arith = _declarations(
        [c for _, c in compiled_axioms] + compiled_seeds + [goal_c]
    )

    lines: List[str] = [
        f"; repro: obligation case {name}",
        "(set-logic UF)",
        "(set-option :produce-models true)",
        f"(declare-sort {SORT} 0)",
    ]
    for sym in sorted(by_symbol):
        _, arity, is_pred = by_symbol[sym]
        out_sort = "Bool" if is_pred else SORT
        arg_sorts = " ".join([SORT] * arity)
        lines.append(f"(declare-fun {sym} ({arg_sorts}) {out_sort})")
    for value in sorted(ints):
        lines.append(f"(declare-fun {int_symbol(value)} () {SORT})")
    arities = {sym: sig[1] for sym, sig in by_symbol.items() if not sig[2]}
    ctor_table = {
        c: arities[smt_symbol(c)] for c in constructors if smt_symbol(c) in arities
    }
    lines.extend(_constructor_axioms(sorted(ctor_table), ctor_table, sorted(ints)))
    if arith:
        lines.append("; ground arithmetic folding (E-graph built-in, reified)")
        for sexpr, value in sorted(arith):
            lines.append(f"(assert (= {sexpr} {int_symbol(value)}))")
    lines.append(f"; background axioms ({len(compiled_axioms)})")
    for origin, c in compiled_axioms:
        if origin:
            lines.append(f"; {origin}")
        lines.append(f"(assert {c.sexpr})")
    if compiled_seeds:
        lines.append(f"; case-split seeds ({len(compiled_seeds)})")
        lines.extend(f"(assert {c.sexpr})" for c in compiled_seeds)
    lines.append("; negated goal")
    lines.append(f"(assert (not {goal_c.sexpr}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def emit_obligation(obligation, **kwargs) -> List[Tuple[str, str]]:
    """One ``(case name, script)`` per statement-kind case of
    ``obligation`` (keyword arguments as for :func:`emit_case`)."""
    return [
        (case_name, emit_case(case_name, goal, seeds=obligation.seeds, **kwargs))
        for case_name, goal in obligation.cases()
    ]


# ---------------------------------------------------------------------------
# The runner: one fresh solver process per case
# ---------------------------------------------------------------------------

_STATUS_TOKENS = ("unsat", "sat", "unknown")
_MAX_MODEL_LINES = 40


def parse_solver_output(text: str) -> Tuple[Optional[str], Tuple[str, ...]]:
    """Extract (verdict, model-lines) from raw solver stdout.

    The verdict is the first line that *is* a status token (solvers print
    warnings and error S-expressions; both are ignored).  Model lines are
    everything after a ``sat`` verdict — and *only* after ``sat`` — that
    is not an error line: trailing chatter after ``unsat``/``unknown``
    (``(error "no model")`` spam, statistics) is not a model."""
    verdict: Optional[str] = None
    model: List[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if verdict is None:
            if stripped in _STATUS_TOKENS:
                verdict = stripped
            continue
        if verdict != "sat":
            break
        if stripped and not stripped.startswith("(error"):
            model.append(line.rstrip())
    return verdict, tuple(model[:_MAX_MODEL_LINES])


#: Run through the ``z3-solver`` wheel's Python bindings when no ``z3``
#: executable is on PATH: the script's declarations and assertions go to
#: one solver, which prints its verdict.
_Z3PY = """\
import sys, z3
text = sys.stdin.read()
keep = [l for l in text.splitlines() if l.startswith(("(declare-", "(assert"))]
solver = z3.Solver()
solver.set(timeout=int(float(sys.argv[1]) * 1000))
solver.from_string("\\n".join(keep))
print(solver.check())
"""


def z3_command(timeout_s: float) -> Optional[List[str]]:
    """The argv that runs one script on z3, or None when z3 is absent."""
    if shutil.which("z3"):
        return ["z3", "-smt2", f"-T:{max(1, int(timeout_s))}", "-in"]
    if importlib.util.find_spec("z3") is not None:
        return [sys.executable, "-c", _Z3PY, str(timeout_s)]
    return None


def run_case(script: str, timeout_s: float = 60.0) -> str:
    """Run ``script`` once in a fresh z3 process: ``"unsat"``, ``"sat"``,
    ``"unknown"``, ``"timeout"`` or ``"error"``."""
    cmd = z3_command(timeout_s)
    if cmd is None:
        raise RuntimeError("z3 is not installed")
    try:
        proc = subprocess.run(
            cmd, input=script, capture_output=True, text=True,
            timeout=timeout_s + 10.0,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    verdict, _ = parse_solver_output(proc.stdout)
    return verdict or "error"


def z3_proves(obligation, timeout_s: float = 60.0) -> bool:
    """Whether z3 answers ``unsat`` on every case of ``obligation``; an
    obligation with no cases is never proved."""
    scripts = emit_obligation(obligation)
    return bool(scripts) and all(
        run_case(script, timeout_s) == "unsat" for _, script in scripts
    )
