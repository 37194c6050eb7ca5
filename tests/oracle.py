"""Independent oracle machinery for the test suite.

The evaluator here is a deliberately separate implementation from the one
in the package (table-dispatched, arrays as plain dict closures) so the two
can cross-check each other.  Also provides brute-force model enumeration
over small boxes, random formula/model generators used by property and
acceptance tests, and the views of formulas, boxes and problems that only
the tests read.
"""

from __future__ import annotations

import itertools
import random

from boxsampler.errors import SmtSyntaxError
from boxsampler.intervals import IntervalMap
from boxsampler.smtlib import ParsedProblem, iter_sexprs, parse_problem, print_declaration, print_formula
from boxsampler.terms import (
    Add,
    And,
    ArrayVar,
    Atom,
    BoolConst,
    BoolVar,
    FuncValue,
    IntConst,
    IntVar,
    Ite,
    Model,
    Mul,
    Not,
    Or,
    Rel,
    Select,
    Sort,
    Store,
    Sub,
    conj,
)


def read_sexpr(text: str, pos: int = 0, final: bool = False):
    """The first complete s-expression at or after `pos` in `text` and the
    offset just past it, or None while the text ends before one or inside
    it; a ")" closing no list raises its error."""
    for node, end in iter_sexprs(text, pos, final):
        if isinstance(node, SmtSyntaxError):
            raise node
        return node, end
    return None


# ---------------------------------------------------------------------------
# Views that only the tests read


def is_literal(f) -> bool:
    return isinstance(f, (Atom, BoolVar, BoolConst)) or (isinstance(f, Not) and isinstance(f.arg, (Atom, BoolVar)))


def literal_count(f) -> int:
    if isinstance(f, (Atom, BoolVar, BoolConst)):
        return 1
    if isinstance(f, Not):
        return literal_count(f.arg)
    if isinstance(f, (And, Or)):
        return sum(literal_count(a) for a in f.args)
    raise TypeError(f"not a formula: {f!r}")


def intersect(a: IntervalMap, b: IntervalMap) -> IntervalMap:
    out = a.copy()
    for key, interval in b.entries.items():
        out.refine(key, interval)
    return out


def to_formula(iv: IntervalMap):
    """The box `iv` as the conjunction of its bounds."""
    atoms = []
    for key, interval in iv.entries.items():
        if interval.lo is not None:
            atoms.append(Atom(Rel.GE, key, IntConst(interval.lo)))
        if interval.hi is not None:
            atoms.append(Atom(Rel.LE, key, IntConst(interval.hi)))
    return conj(atoms) if atoms else And(())


def print_problem(p: ParsedProblem) -> str:
    lines = []
    if p.logic:
        lines.append(f"(set-logic {p.logic})")
    lines.extend(print_declaration(d) for d in p.declarations)
    lines.append(f"(assert {print_formula(p.assertion)})")
    return "\n".join(lines) + "\n"


def fun_app(name: str, arg):
    """The application ``(name arg)`` of a unary function, which the parser
    reads as a select over the function's symbol."""
    return Select(ArrayVar(name, function=True), arg)


# ---------------------------------------------------------------------------
# Second evaluator.  Arrays are evaluated as (default, frozen dict) pairs.


def o_term(t, env):
    return _TERM_TABLE[type(t)](t, env)


def o_formula(f, env):
    return _FORMULA_TABLE[type(f)](f, env)


def _arr_get(arr, i):
    default, mapping = arr
    return mapping.get(i, default)


_TERM_TABLE = {
    IntConst: lambda t, env: t.value,
    IntVar: lambda t, env: env[t.name],
    Add: lambda t, env: sum(o_term(a, env) for a in t.args),
    Sub: lambda t, env: o_term(t.lhs, env) - o_term(t.rhs, env),
    Mul: lambda t, env: _product(o_term(a, env) for a in t.args),
    Ite: lambda t, env: o_term(t.then, env) if o_formula(t.cond, env) else o_term(t.orelse, env),
    Select: lambda t, env: _arr_get(o_term(t.array, env), o_term(t.index, env)),
    Store: lambda t, env: _store(o_term(t.array, env), o_term(t.index, env), o_term(t.value, env)),
    ArrayVar: lambda t, env: env[t.name],
}


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def _store(arr, i, v):
    default, mapping = arr
    m2 = dict(mapping)
    m2[i] = v
    return (default, m2)


def _arr_eq(a, b):
    keys = set(a[1]) | set(b[1])
    return a[0] == b[0] and all(_arr_get(a, k) == _arr_get(b, k) for k in keys)


def _cmp(rel, a, b):
    if isinstance(a, tuple):  # array-sorted operands
        eq = _arr_eq(a, b)
        return eq if rel == Rel.EQ else not eq
    return {
        Rel.LT: a < b,
        Rel.LE: a <= b,
        Rel.GT: a > b,
        Rel.GE: a >= b,
        Rel.EQ: a == b,
        Rel.NE: a != b,
    }[rel]


_FORMULA_TABLE = {
    Atom: lambda f, env: _cmp(f.rel, o_term(f.lhs, env), o_term(f.rhs, env)),
    Not: lambda f, env: not o_formula(f.arg, env),
    And: lambda f, env: all(o_formula(a, env) for a in f.args),
    Or: lambda f, env: any(o_formula(a, env) for a in f.args),
    BoolVar: lambda f, env: env[f.name],
    BoolConst: lambda f, env: f.value,
}


# SMT-LIB's operators by their definitions over the values of their
# arguments, without the trees the parser lowers them to.
def _implies(*xs):
    *premises, conclusion = xs  # right-associative: (=> a b c) is (=> a (=> b c))
    return conclusion or not all(premises)


SMT_OPS = {
    "not": lambda a: not a,
    "and": lambda *xs: all(xs),
    "or": lambda *xs: any(xs),
    "=>": _implies,
    "xor": lambda a, b: a != b,
    "=": lambda *xs: all(a == b for a, b in zip(xs, xs[1:])),
    "distinct": lambda *xs: len(set(xs)) == len(xs),
    "ite": lambda c, a, b: a if c else b,
    "<": lambda *xs: all(a < b for a, b in zip(xs, xs[1:])),
    "<=": lambda *xs: all(a <= b for a, b in zip(xs, xs[1:])),
    ">": lambda *xs: all(a > b for a, b in zip(xs, xs[1:])),
    ">=": lambda *xs: all(a >= b for a, b in zip(xs, xs[1:])),
}


def o_sexpr(e, env):
    """The value of `e`, an SMT-LIB expression written as nested tuples
    ``(operator, argument, ...)`` over symbol names and integers."""
    if isinstance(e, tuple):
        return SMT_OPS[e[0]](*(o_sexpr(a, env) for a in e[1:]))
    return env[e] if isinstance(e, str) else e


def env_of_model(m: Model) -> dict:
    env = {}
    env.update(m.ints)
    env.update(m.bools)
    for name, fv in m.funcs.items():
        env[name] = (fv.default, dict(fv.exceptions))
    return env


def model_of_env(env: dict) -> Model:
    m = Model()
    for name, value in env.items():
        if isinstance(value, bool):
            m.bools[name] = value
        elif isinstance(value, tuple):
            m.funcs[name] = FuncValue(value[0], dict(value[1]))
        else:
            m.ints[name] = value
    return m


def layout_model(layout, values) -> Model:
    """The :class:`Model` of a vector of `layout` (a
    :class:`boxsampler.sampler.SampleLayout`), one comprehension per sort
    over the declarations: the reference of ``SampleLayout.model``."""
    declared = list(enumerate(zip(layout.names, layout.sorts)))
    groups = {sort: [(name, i) for i, (name, s) in declared if s is sort] for sort in Sort}
    return Model(
        ints={name: values[i] for name, i in groups[Sort.INT]},
        bools={name: values[i] for name, i in groups[Sort.BOOL]},
        funcs={name: values[i] for name, i in groups[Sort.ARRAY]},
    )


def sample_json_obj(m: Model) -> dict:
    """The JSON object of a sample: ``json.dumps(sample_json_obj(m),
    sort_keys=True)`` is the reference of ``boxsampler.cli.sample_to_json``."""
    out: dict = {}
    out.update(m.ints)
    out.update(m.bools)
    for name, fv in m.funcs.items():
        out[name] = {
            "default": fv.default,
            "exceptions": {str(k): v for k, v in sorted(fv.exceptions.items())},
        }
    return out


# ---------------------------------------------------------------------------
# Brute-force enumeration over small boxes


def iter_int_models(names, lo, hi):
    names = list(names)
    for point in itertools.product(range(lo, hi + 1), repeat=len(names)):
        yield Model(ints=dict(zip(names, point)))


def brute_force_implies(antecedent_literals, consequent, names, lo, hi) -> bool:
    """Exhaustively check (/\\ literals) -> consequent over an integer box."""
    for m in iter_int_models(names, lo, hi):
        env = env_of_model(m)
        if all(o_formula(l, env) for l in antecedent_literals) and not o_formula(consequent, env):
            return False
    return True


def find_int_model(formula, names, lo, hi) -> Model | None:
    for m in iter_int_models(names, lo, hi):
        if o_formula(formula, env_of_model(m)):
            return m
    return None


# ---------------------------------------------------------------------------
# Random generators (plain random module; deterministic via seeds)


def random_int_term(rng: random.Random, names, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return IntVar(rng.choice(names)) if rng.random() < 0.7 else IntConst(rng.randint(-5, 5))
    if roll < 0.6:
        return Add(tuple(random_int_term(rng, names, depth - 1) for _ in range(rng.randint(2, 3))))
    if roll < 0.8:
        return Sub(random_int_term(rng, names, depth - 1), random_int_term(rng, names, depth - 1))
    return Mul(
        (IntConst(rng.choice([-3, -2, -1, 2, 3])), random_int_term(rng, names, depth - 1))
    )


def random_atom(rng: random.Random, names):
    rel = rng.choice(list(Rel))
    return Atom(rel, random_int_term(rng, names, 2), random_int_term(rng, names, 2))


def random_formula(rng: random.Random, names, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        return random_atom(rng, names)
    roll = rng.random()
    children = tuple(random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3)))
    if roll < 0.35:
        return And(children)
    if roll < 0.7:
        return Or(children)
    return Not(random_formula(rng, names, depth - 1))


def random_nnf_formula(rng: random.Random, names, depth: int):
    from boxsampler.terms import to_nnf

    return to_nnf(random_formula(rng, names, depth))


# -- product terms for soundness suites -------------------------------------


def random_product_literal(rng: random.Random, m: Model, names):
    """A literal of degree <= 2 with coefficients in [-4, 4], adjusted so the
    given model satisfies it."""
    monomials = []
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice([c for c in range(-4, 5) if c != 0])
        if rng.random() < 0.4:
            factors = (IntVar(rng.choice(names)), IntVar(rng.choice(names)))
        else:
            factors = (IntVar(rng.choice(names)),)
        monomials.append(Mul((IntConst(coeff),) + factors))
    lhs = monomials[0] if len(monomials) == 1 else Add(tuple(monomials))
    return satisfied_atom(rng, lhs, m)


def satisfied_atom(rng: random.Random, lhs, m: Model):
    """An atom `lhs rel c` under a random relation, with the constant
    chosen so that `m` satisfies it."""
    value = o_term(lhs, env_of_model(m))
    rel = rng.choice([Rel.LE, Rel.LT, Rel.GE, Rel.GT, Rel.EQ, Rel.NE])
    if rel == Rel.LE:
        return Atom(rel, lhs, IntConst(value + rng.randint(0, 6)))
    if rel == Rel.LT:
        return Atom(rel, lhs, IntConst(value + rng.randint(1, 6)))
    if rel == Rel.GE:
        return Atom(rel, lhs, IntConst(value - rng.randint(0, 6)))
    if rel == Rel.GT:
        return Atom(rel, lhs, IntConst(value - rng.randint(1, 6)))
    if rel == Rel.EQ:
        return Atom(rel, lhs, IntConst(value))
    other = value + rng.choice([-2, -1, 1, 2])
    return Atom(rel, lhs, IntConst(other))


def random_product_term(rng: random.Random, m: Model, names, size: int):
    return [random_product_literal(rng, m, names) for _ in range(size)]


# -- random array formulas/models for the array pipeline and solver tests ----


def random_array_term(rng: random.Random, int_names, arr_names, fun_names, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return IntVar(rng.choice(int_names)) if rng.random() < 0.6 else IntConst(rng.randint(-3, 3))
    if roll < 0.55 and arr_names:
        return Select(ArrayVar(rng.choice(arr_names)), random_array_term(rng, int_names, arr_names, fun_names, depth - 1))
    if roll < 0.7 and fun_names:
        return fun_app(rng.choice(fun_names), random_array_term(rng, int_names, arr_names, fun_names, depth - 1))
    if roll < 0.85:
        return Add(tuple(random_array_term(rng, int_names, arr_names, fun_names, depth - 1) for _ in range(2)))
    return Mul((IntConst(rng.choice([-2, 2, 3])), random_array_term(rng, int_names, arr_names, fun_names, depth - 1)))


def random_array_formula(rng: random.Random, int_names, arr_names, fun_names, depth: int):
    if depth <= 0 or rng.random() < 0.45:
        rel = rng.choice([Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.EQ, Rel.NE])
        lhs = random_array_term(rng, int_names, arr_names, fun_names, 2)
        rhs = random_array_term(rng, int_names, arr_names, fun_names, 2)
        return Atom(rel, lhs, rhs)
    children = tuple(
        random_array_formula(rng, int_names, arr_names, fun_names, depth - 1) for _ in range(2)
    )
    return And(children) if rng.random() < 0.5 else Or(children)


def random_array_model(rng: random.Random, int_names, arr_names, fun_names) -> Model:
    m = Model()
    for n in int_names:
        m.ints[n] = rng.randint(-3, 3)
    for n in list(arr_names) + list(fun_names):
        exceptions = {rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
        m.funcs[n] = FuncValue(rng.randint(-3, 3), exceptions)
    return m


def deep_and_or(depth: int, var: str = "x"):
    """An or/and chain `depth` connectives deep, alternating so that nothing
    flattens; true exactly for var >= 0."""
    x = IntVar(var)
    f = Atom(Rel.GE, x, IntConst(0))
    for i in range(depth):
        f = (And if i % 2 else Or)((Atom(Rel.LE, x, IntConst(i + 5)), f))
    return f


def nested_selects(depth: int) -> ParsedProblem:
    """The problem ``(>= (select a (select a ... 0)) 0)``, `depth` selects
    deep."""
    text = "0"
    for _ in range(depth):
        text = f"(select a {text})"
    return parse_problem(f"(declare-const a (Array Int Int))(assert (>= {text} 0))")
