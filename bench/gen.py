"""Seeded workload generators and the independent sample check.

Every generator builds a formula in the small tuple language below, prints
it as SMT-LIB text for the program, and keeps the tuple form so that the
benchmark can check each emitted sample with its own evaluator.  Nothing
here imports `boxsampler`: the check shares no code with the parser, the
term evaluator or the sampler it audits.

Terms:    ("var", name) | ("const", k) | ("sum", ((coeff, term), ...))
          | ("sel", array, term) | ("app", function, term)
Formulas: ("cmp", rel, term, term) with rel in <= >= < > =
          | ("and", (formula, ...)) | ("or", (formula, ...))

An environment maps Int names to ints and array / function names to a
`(default, {index: value})` pair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

# `boxsampler.minisolver` serves every workload.  Its random seeding puts
# soft targets in [-RANDOM_BOUND, RANDOM_BOUND].
RANDOM_BOUND = 100


@dataclass
class Instance:
    """One generated input: the text the program sees, the tuple form the
    check uses, and the size facts the report records."""

    name: str
    ints: tuple[str, ...]
    arrays: tuple[str, ...]
    funcs: tuple[str, ...]
    formula: tuple
    logic: str
    model_count: int | None = None
    sizes: dict = field(default_factory=dict)

    def smtlib(self) -> str:
        lines = [f"(set-logic {self.logic})"]
        lines += [f"(declare-fun {n} () Int)" for n in self.ints]
        lines += [f"(declare-fun {n} () (Array Int Int))" for n in self.arrays]
        lines += [f"(declare-fun {n} (Int) Int)" for n in self.funcs]
        body = self.formula[1] if self.formula[0] == "and" else (self.formula,)
        lines += [f"(assert {_fmt(f)})" for f in body]
        lines.append("(check-sat)")
        return "\n".join(lines) + "\n"

    def holds(self, env: dict) -> bool:
        return evaluate(self.formula, env)


# ---------------------------------------------------------------------------
# Printing and evaluation of the tuple language


def _num(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


def _fmt(x) -> str:
    tag = x[0]
    if tag == "var":
        return x[1]
    if tag == "const":
        return _num(x[1])
    if tag == "sum":
        parts = [_fmt(t) if c == 1 else f"(* {_num(c)} {_fmt(t)})" for c, t in x[1]]
        return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"
    if tag == "sel":
        return f"(select {x[1]} {_fmt(x[2])})"
    if tag == "app":
        return f"({x[1]} {_fmt(x[2])})"
    if tag == "cmp":
        return f"({x[1]} {_fmt(x[2])} {_fmt(x[3])})"
    if tag in ("and", "or"):
        return f"({tag} " + " ".join(_fmt(a) for a in x[1]) + ")"
    raise ValueError(f"unknown node {tag!r}")


_REL = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
}


def value(t, env: dict) -> int:
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "const":
        return t[1]
    if tag == "sum":
        return sum(c * value(u, env) for c, u in t[1])
    if tag in ("sel", "app"):
        default, table = env[t[1]]
        return table.get(value(t[2], env), default)
    raise ValueError(f"unknown term {tag!r}")


def evaluate(f, env: dict) -> bool:
    tag = f[0]
    if tag == "cmp":
        return _REL[f[1]](value(f[2], env), value(f[3], env))
    if tag == "and":
        return all(evaluate(a, env) for a in f[1])
    if tag == "or":
        return any(evaluate(a, env) for a in f[1])
    raise ValueError(f"unknown formula {tag!r}")


def _nodes(x) -> int:
    tag = x[0]
    if tag in ("var", "const"):
        return 1
    if tag == "sum":
        # an n-ary + over products coefficient * term
        return 1 + sum((1 if c == 1 else 2) + _nodes(t) for c, t in x[1]) - (len(x[1]) == 1)
    if tag in ("sel", "app"):
        return 1 + (tag == "sel") + _nodes(x[2])
    if tag == "cmp":
        return 1 + _nodes(x[2]) + _nodes(x[3])
    return 1 + sum(_nodes(a) for a in x[1])


def _literals(f) -> int:
    return 1 if f[0] == "cmp" else sum(_literals(a) for a in f[1])


def _sizes(inst: Instance) -> dict:
    return {
        "vars": len(inst.ints) + len(inst.arrays) + len(inst.funcs),
        "literals": _literals(inst.formula),
        "ast_nodes": _nodes(inst.formula),
    }


def _var(n: str):
    return ("var", n)


def _lin(pairs) -> tuple:
    return ("sum", tuple(pairs))


def _le(t, k: int):
    return ("cmp", "<=", t, ("const", k))


def _ge(t, k: int):
    return ("cmp", ">=", t, ("const", k))


# ---------------------------------------------------------------------------
# lia_wide: 8 Int variables, 20 linear literals of 2-3 variables, four of
# the literals pairs inside disjunctions.  Every conjunct, and one side of
# every disjunction, holds on the whole cube [-R, R]^8 with R above the
# random-seeding bound, so a random MAX-SMT target is always a model and the
# stand-in solver answers at distance 0.  The other disjunct cuts the cube
# roughly in half, so the implicant still has a choice to make.


def _loose_literal(rng: random.Random, names, reach: int):
    vs = rng.sample(names, rng.choice((2, 3)))
    pairs = [(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), _var(v)) for v in vs]
    span = reach * sum(abs(c) for c, _ in pairs)
    extra = rng.randint(20, 400)
    if rng.random() < 0.5:
        return _le(_lin(pairs), span + extra)
    return _ge(_lin(pairs), -span - extra)


def _cutting_literal(rng: random.Random, names):
    vs = rng.sample(names, rng.choice((2, 3)))
    pairs = [(rng.choice((-3, -2, -1, 1, 2, 3)), _var(v)) for v in vs]
    k = rng.randint(-60, 60)
    return _le(_lin(pairs), k) if rng.random() < 0.5 else _ge(_lin(pairs), k)


def gen_lia_wide(seed: int, index: int = 0) -> Instance:
    rng = random.Random(f"lia_wide/{seed}/{index}")
    names = [f"x{i}" for i in range(8)]
    reach = RANDOM_BOUND + 20
    conjuncts = [_loose_literal(rng, names, reach) for _ in range(12)]
    for _ in range(4):
        pair = [_loose_literal(rng, names, reach), _cutting_literal(rng, names)]
        rng.shuffle(pair)
        conjuncts.append(("or", tuple(pair)))
    rng.shuffle(conjuncts)
    inst = Instance(f"lia_wide-{seed}-{index}", tuple(names), (), (), ("and", tuple(conjuncts)), "QF_LIA")
    inst.sizes = _sizes(inst)
    return inst


# ---------------------------------------------------------------------------
# point_blocking: one linear equality over three bounded Int variables plus
# the bounds themselves.  Every implicant contains the equality, whose slack
# is zero, so every interval box is a single point.  The bounds keep the box
# within the stand-in solver's exact scan, and the models are counted here
# by enumeration that does not use that solver.


# 61**3 = 226,981 points, within the 400,000 that `minisolver` scans exactly.
POINT_WIDTH = 60


def _count_point_models(coeffs, total, bounds) -> int:
    (a, b, c), ((la, ha), (lb, hb), (lc, hc)) = coeffs, bounds
    count = 0
    for x, y in itertools.product(range(la, ha + 1), range(lb, hb + 1)):
        rest = total - a * x - b * y
        if rest % c == 0 and lc <= rest // c <= hc:
            count += 1
    return count


def gen_point_blocking(seed: int, index: int = 0) -> Instance:
    rng = random.Random(f"point_blocking/{seed}/{index}")
    names = ("p", "q", "r")
    # Fixed widths and coefficient sizes keep the density of models, and so
    # the solver's scan length per query, alike across seeds; the seed moves
    # the box and picks the signs and the constant.
    bounds = []
    for _ in names:
        lo = -POINT_WIDTH // 2 + rng.randint(-8, 8)
        bounds.append((lo, lo + POINT_WIDTH))
    coeffs = tuple(c * rng.choice((-1, 1)) for c in (1, 2, 3))
    mid = [(lo + hi) // 2 for lo, hi in bounds]
    total = sum(c * m for c, m in zip(coeffs, mid)) + rng.randint(-10, 10)
    models = _count_point_models(coeffs, total, bounds)
    conjuncts = []
    for n, (lo, hi) in zip(names, bounds):
        conjuncts += [_ge(_var(n), lo), _le(_var(n), hi)]
    conjuncts.append(("cmp", "=", _lin(zip(coeffs, map(_var, names))), ("const", total)))
    inst = Instance(
        f"point_blocking-{seed}-{index}", names, (), (), ("and", tuple(conjuncts)), "QF_LIA", model_count=models
    )
    inst.sizes = _sizes(inst) | {"box_points": (POINT_WIDTH + 1) ** 3}
    return inst


# ---------------------------------------------------------------------------
# alia_cli: two arrays and one unary function over three bounded Int
# indices, with a select nested inside another select's index.  The bounds
# keep the stand-in solver on a finite scan, and the few distinct constants
# keep its array enumeration short.


def gen_alia_cli(seed: int, index: int = 0) -> Instance:
    rng = random.Random(f"alia_cli/{seed}/{index}")
    i, j, k = _var("i"), _var("j"), _var("k")
    a_i = ("sel", "a", i)
    b_j = ("sel", "b", j)
    f_k = ("app", "f", k)
    nested = ("sel", "a", ("sel", "b", k))
    lim = 5
    conjuncts = [
        _ge(i, 0), _le(i, lim),
        _ge(j, 0), _le(j, lim),
        _ge(k, 0), _le(k, lim),
        _le(_lin([(1, a_i), (1, b_j)]), rng.randint(30, 60)),
        _ge(_lin([(1, a_i), (-1, j)]), -rng.randint(30, 60)),
        _le(_lin([(2, f_k), (-1, i)]), rng.randint(30, 60)),
        ("or", (
            _ge(_lin([(1, nested), (1, f_k)]), -rng.randint(20, 40)),
            _le(_lin([(1, b_j), (1, k)]), -rng.randint(1, 5)),
        )),
        ("or", (
            _le(_lin([(1, ("app", "f", ("sel", "b", i))), (-1, k)]), rng.randint(20, 40)),
            _ge(i, lim + 1),
        )),
    ]
    inst = Instance(f"alia_cli-{seed}-{index}", ("i", "j", "k"), ("a", "b"), ("f",), ("and", tuple(conjuncts)), "QF_AUFLIA")
    inst.sizes = _sizes(inst)
    return inst


GENERATORS = {
    "lia_wide": gen_lia_wide,
    "alia_cli": gen_alia_cli,
    "point_blocking": gen_point_blocking,
}
