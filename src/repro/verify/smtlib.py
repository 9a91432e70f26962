"""SMT-LIB2 emission of the obligation encoding (docs/BACKENDS.md).

The original Cobalt shipped every proof obligation to the external Simplify
prover.  This module is the emission half of that architecture for modern
solvers: it translates the checker's obligation encoding — uninterpreted
functions over one value sort, the fixed IL axiomatization of
:mod:`repro.verify.encode`, the generated label axioms (already inlined in
the obligation goals), and the ground case-split seeds — into
``(set-logic UF)`` input that ``z3``/``cvc5`` can decide: one prelude of
declarations and axioms, plus one goal tail per obligation case.

The mapping (see docs/BACKENDS.md for the full table):

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
is valid.  It is deliberately weaker than the internal prover on ``sat``
(a model may exploit, say, unfolded arithmetic over instantiation-created
terms), which is why backends treat ``sat`` as a countermodel *report*,
not a disproof — exactly how the internal prover treats a saturated
branch (docs/PROVER.md).

Formulas are hash-consed (:mod:`repro.logic.intern`), so compilation is
memoized per node: the ~600-formula background prelude is rendered once
per process and reused by every query.
"""

from __future__ import annotations

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
# Script assembly: a once-per-process prelude + a per-goal tail
# ---------------------------------------------------------------------------
#
# Every query is one prelude plus one goal tail (docs/BACKENDS.md, "Solver
# processes").  :func:`emit_prelude` renders everything derivable from the
# axioms alone; :func:`emit_goal_tail` renders the *delta* a goal adds —
# declarations the prelude does not make, constructor/arithmetic facts
# over the goal's new ground terms, the seeds, and the negated goal.  A
# process that serves several queries asserts the prelude once and runs
# each tail inside ``(push 1)``/``(pop 1)`` (SMT-LIB 2.6 pops the tail's
# declarations with its scope); a one-query process receives the two back
# to back, which is :func:`emit_obligation`'s script.


@dataclass
class SessionPrelude:
    """The once-per-process half of the emission."""

    #: complete prelude commands, in emission order
    lines: Tuple[str, ...]
    #: declared symbol -> signature (for per-goal conflict checks)
    symbol_sigs: Dict[str, Sig]
    ints: FrozenSet[int]
    arith: FrozenSet[Tuple[str, int]]
    #: original (unsanitized) constructor names the prelude was built with
    constructors: Tuple[str, ...]
    #: constructor-discipline lines already asserted by the prelude
    ctor_lines: FrozenSet[str]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def assert_lines(self) -> List[str]:
        return [l for l in self.lines if l.startswith("(assert")]


@dataclass
class GoalTail:
    """The per-goal half: everything asserted inside one push scope."""

    name: str
    #: declarations first, then assertions; no ``push``/``pop``/
    #: ``check-sat`` (the solver driver adds those)
    lines: Tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def assert_lines(self) -> List[str]:
        return [l for l in self.lines if l.startswith("(assert")]


def emit_prelude(
    axioms: Sequence[Formula],
    constructors: Sequence[str] = (),
) -> SessionPrelude:
    """Render the prelude every solver process is sent first: logic,
    declarations, constructor discipline, ground arithmetic over axiom
    terms, and the axioms."""
    compiled_axioms: List[Tuple[str, _Compiled]] = []
    sigs: Set[Sig] = set()
    ints: Set[int] = set()
    arith: Set[Tuple[str, int]] = set()
    for ax in axioms:
        origin = ""
        if isinstance(ax, tuple):
            origin, ax = ax
        c = compile_formula(ax)
        compiled_axioms.append((origin, c))
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

    lines: List[str] = [
        "; repro: shared prelude",
        "; emitted by repro.verify.smtlib (docs/BACKENDS.md)",
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
        c: arities[smt_symbol(c)]
        for c in constructors
        if smt_symbol(c) in arities
    }
    ctor_lines = _constructor_axioms(sorted(ctor_table), ctor_table, sorted(ints))
    lines.extend(ctor_lines)

    if arith:
        lines.append("; ground arithmetic folding (E-graph built-in, reified)")
        for sexpr, value in sorted(arith):
            lines.append(f"(assert (= {sexpr} {int_symbol(value)}))")

    lines.append(f"; background axioms ({len(compiled_axioms)})")
    for origin, c in compiled_axioms:
        if origin:
            lines.append(f"; {origin}")
        lines.append(f"(assert {c.sexpr})")

    return SessionPrelude(
        lines=tuple(lines),
        symbol_sigs=by_symbol,
        ints=frozenset(ints),
        arith=frozenset(arith),
        constructors=tuple(constructors),
        ctor_lines=frozenset(
            l for l in ctor_lines if l.startswith("(assert")
        ),
    )


def emit_goal_tail(
    prelude: SessionPrelude,
    name: str,
    goal: Formula,
    *,
    seeds: Sequence[Formula] = (),
) -> GoalTail:
    """Render one goal's push-scope delta against ``prelude``.

    Declarations for symbols/numerals the prelude does not know are made
    inside the scope (SMT-LIB 2.6 pops them with the scope); constructor
    and arithmetic facts are re-derived over the *combined* ground terms
    and only the lines the prelude has not already asserted are kept."""
    compiled_seeds = [compile_formula(seed) for seed in seeds]
    goal_c = compile_formula(goal)
    sigs: Set[Sig] = set(goal_c.sigs)
    ints: Set[int] = set(goal_c.ints)
    arith: Set[Tuple[str, int]] = set(goal_c.arith)
    for c in compiled_seeds:
        sigs |= c.sigs
        ints |= c.ints
        arith |= c.arith

    by_symbol: Dict[str, Sig] = {}
    for sig in sorted(sigs):
        prev = prelude.symbol_sigs.get(sig[0]) or by_symbol.get(sig[0])
        if prev is not None and prev != sig:
            raise ValueError(
                f"symbol {sig[0]!r} used inconsistently: {prev} vs {sig}"
            )
        by_symbol[sig[0]] = sig

    lines: List[str] = [f"; goal {name}"]
    for sym in sorted(by_symbol):
        if sym in prelude.symbol_sigs:
            continue
        _, arity, is_pred = by_symbol[sym]
        out_sort = "Bool" if is_pred else SORT
        arg_sorts = " ".join([SORT] * arity)
        lines.append(f"(declare-fun {sym} ({arg_sorts}) {out_sort})")
    for value in sorted(set(ints) - set(prelude.ints)):
        lines.append(f"(declare-fun {int_symbol(value)} () {SORT})")

    # Constructor facts over the combined ground terms, minus what the
    # prelude already said.  Injectivity/cross-distinctness lines are
    # int-independent and thus already present; only the nullary-atom
    # distinctness (which enumerates every numeral) grows.
    combined_sigs = dict(prelude.symbol_sigs)
    combined_sigs.update(by_symbol)
    arities = {sym: sig[1] for sym, sig in combined_sigs.items() if not sig[2]}
    ctor_table = {
        c: arities[smt_symbol(c)]
        for c in prelude.constructors
        if smt_symbol(c) in arities
    }
    combined_ints = sorted(set(prelude.ints) | set(ints))
    delta_ctor = [
        l
        for l in _constructor_axioms(sorted(ctor_table), ctor_table, combined_ints)
        if l.startswith("(assert") and l not in prelude.ctor_lines
    ]
    if delta_ctor:
        lines.append("; constructor discipline (delta over goal numerals)")
        lines.extend(delta_ctor)

    delta_arith = sorted(set(arith) - set(prelude.arith))
    if delta_arith:
        lines.append("; ground arithmetic folding (delta)")
        for sexpr, value in delta_arith:
            lines.append(f"(assert (= {sexpr} {int_symbol(value)}))")

    if compiled_seeds:
        lines.append(f"; case-split seeds ({len(compiled_seeds)})")
        for c in compiled_seeds:
            lines.append(f"(assert {c.sexpr})")
    lines.append("; negated goal")
    lines.append(f"(assert (not {goal_c.sexpr}))")
    return GoalTail(name=name, lines=tuple(lines))


def emit_obligation(
    obligation, prelude: Optional[SessionPrelude] = None
) -> List[Tuple[str, str]]:
    """One complete ``(name, script)`` per statement-kind case of
    ``obligation``: the prelude, the case's goal tail and ``(check-sat)``
    — exactly what a one-query solver process is sent."""
    if prelude is None:
        from repro.verify.encode import CONSTRUCTORS, all_axioms

        prelude = emit_prelude(all_axioms(), sorted(CONSTRUCTORS))
    return [
        (
            case_name,
            prelude.text
            + emit_goal_tail(prelude, case_name, goal, seeds=obligation.seeds).text
            + "(check-sat)\n",
        )
        for case_name, goal in obligation.cases()
    ]
