"""Test oracle for the term layer: recursive walkers over public fields.

Checks the hash-consed terms and formulas of :mod:`repro.logic`, whose
``==``/``hash`` are identity-based and whose free variables, sizes,
printed forms and substitutions are cached or memoized per node.  Each
walker below recomputes one of them from scratch by recursing over the
public fields (``LVar.name``, ``App.fn``/``args``, ``Forall.vars``/
``body``, ...), never touching a cache:

* :func:`key` — the structural identity, as nested tuples;
* :func:`render` — the printed form;
* :func:`free` / :func:`size` — free variables and term size;
* :func:`subst_key` — the key of a substitution's result.

``tests/test_interning.py`` compares them with the interned operations on
generated inputs.  Mutants this catches (EXPERIMENTS.md, E12): an
interned ``__eq__`` or ``__hash__`` that ignores a field (M6).
"""

_BINARY = {"Implies": ("hyp", "conc", "->"), "Iff": ("lhs", "rhs", "<->")}
_NARY = {"And": " & ", "Or": " | "}


def _kind(obj):
    return type(obj).__name__


def key(obj):
    k = _kind(obj)
    if k == "LVar":
        return (k, obj.name)
    if k == "IntConst":
        return (k, obj.value)
    if k in ("App", "Pred"):
        return (k, obj.fn if k == "App" else obj.name, tuple(key(a) for a in obj.args))
    if k in ("Top", "Bottom"):
        return (k,)
    if k == "Eq":
        return (k, key(obj.lhs), key(obj.rhs))
    if k == "Not":
        return (k, key(obj.body))
    if k in _NARY:
        return (k, tuple(key(p) for p in obj.parts))
    if k in _BINARY:
        a, b, _ = _BINARY[k]
        return (k, key(getattr(obj, a)), key(getattr(obj, b)))
    if k == "Forall":
        triggers = tuple(tuple(key(t) for t in trig) for trig in obj.triggers)
        return (k, tuple(obj.vars), key(obj.body), triggers)
    if k == "Exists":
        return (k, tuple(obj.vars), key(obj.body))
    raise TypeError(f"not a term or formula: {obj!r}")


def render(obj):
    k = _kind(obj)
    if k == "LVar":
        return f"?{obj.name}"
    if k == "IntConst":
        return str(obj.value)
    if k in ("App", "Pred"):
        head = obj.fn if k == "App" else obj.name
        return f"{head}({', '.join(map(render, obj.args))})" if obj.args else head
    if k == "Top":
        return "true"
    if k == "Bottom":
        return "false"
    if k == "Eq":
        return f"{render(obj.lhs)} = {render(obj.rhs)}"
    if k == "Not":
        return f"~({render(obj.body)})"
    if k in _NARY:
        return "(" + _NARY[k].join(map(render, obj.parts)) + ")"
    if k in _BINARY:
        a, b, op = _BINARY[k]
        return f"({render(getattr(obj, a))} {op} {render(getattr(obj, b))})"
    quantifier = "forall" if k == "Forall" else "exists"
    return f"({quantifier} {' '.join(obj.vars)}. {render(obj.body)})"


def free(obj):
    k = _kind(obj)
    if k == "LVar":
        return frozenset([obj.name])
    if k in ("App", "Pred"):
        return frozenset().union(*map(free, obj.args))
    if k in ("IntConst", "Top", "Bottom"):
        return frozenset()
    if k == "Eq":
        return free(obj.lhs) | free(obj.rhs)
    if k == "Not":
        return free(obj.body)
    if k in _NARY:
        return frozenset().union(*map(free, obj.parts))
    if k in _BINARY:
        a, b, _ = _BINARY[k]
        return free(getattr(obj, a)) | free(getattr(obj, b))
    return free(obj.body) - frozenset(obj.vars)


def size(term):
    if _kind(term) == "App":
        return 1 + sum(size(a) for a in term.args)
    return 1


def subst_key(obj, binding):
    """``key`` of ``obj`` with free variables replaced by the keys in
    ``binding`` (variable name -> key); quantifiers shadow their vars."""
    k = _kind(obj)
    if k == "LVar":
        return binding.get(obj.name, key(obj))
    if k in ("IntConst", "Top", "Bottom"):
        return key(obj)
    if k in ("App", "Pred"):
        head = obj.fn if k == "App" else obj.name
        return (k, head, tuple(subst_key(a, binding) for a in obj.args))
    if k == "Eq":
        return (k, subst_key(obj.lhs, binding), subst_key(obj.rhs, binding))
    if k == "Not":
        return (k, subst_key(obj.body, binding))
    if k in _NARY:
        return (k, tuple(subst_key(p, binding) for p in obj.parts))
    if k in _BINARY:
        a, b, _ = _BINARY[k]
        return (k, subst_key(getattr(obj, a), binding), subst_key(getattr(obj, b), binding))
    inner = {v: t for v, t in binding.items() if v not in obj.vars}
    if k == "Forall":
        triggers = tuple(tuple(key(t) for t in trig) for trig in obj.triggers)
        return (k, tuple(obj.vars), subst_key(obj.body, inner), triggers)
    return (k, tuple(obj.vars), subst_key(obj.body, inner))
