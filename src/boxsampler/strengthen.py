"""Turn integer literals into interval bounds around a model.

Every literal is first normalized to one or two canonical inequalities
"sum of monomials <= constant".  Canonical inequalities are then shrunk
recursively:

 * a sum splits its slack (bound minus model value) among the summands,
   each child keeping its model value plus a share of the slack;
 * a constant coefficient is divided out of the bound, flooring toward
   the sound side;
 * a product of two or more terms keeps only the sign information: with a
   nonnegative product every factor may move between zero and its model
   value, with a negative product every factor must move away from zero.

The bounds reaching the leaves (variables and select-like terms: array
reads and function applications alike) are collected into an IntervalMap.  By construction the model
lies inside every interval and every point of the box satisfies the literal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisorZero, NegativeSlack, UnsupportedFeature
from .implicant import ProductTerm
from .intervals import Interval, IntervalMap
from .terms import (
    Add,
    Atom,
    BoolConst,
    BoolVar,
    Formula,
    IntConst,
    IntVar,
    Model,
    Mul,
    Not,
    Rel,
    Select,
    Sort,
    Sub,
    Term,
    eval_term,
    sort_of,
)


@dataclass(frozen=True)
class Monomial:
    """coefficient * product of non-constant factors (leaves or sums)."""

    coeff: int
    factors: tuple[Term, ...]


@dataclass(frozen=True)
class CanonicalLiteral:
    """sum(monomials) <= bound; equivalent to its source literal under
    every model (together with its sibling, for equalities)."""

    monomials: tuple[Monomial, ...]
    bound: int


def slack_share(n: int, k: int, i: int) -> int:
    """i-th share (1-based) of splitting n >= 0 into k near-equal parts.
    Shares sum to n exactly; the first n mod k shares get the extra unit."""
    if n < 0:
        raise NegativeSlack(f"cannot split negative slack {n}")
    if not 1 <= i <= k:
        raise ValueError(f"share index {i} out of range 1..{k}")
    return n // k + (1 if i <= n % k else 0)


def signed_floor_div(x: int, y: int) -> int:
    """Divide rounding down for positive divisors and up for negative ones,
    so that y * result stays on the sound side of x."""
    if y == 0:
        raise DivisorZero("division by zero")
    if y > 0:
        return x // y
    return -((-x) // y)


def _sign(x: int) -> int:
    # zero counts as positive so that a zero-valued factor gets pinned to 0
    return -1 if x < 0 else 1


# ---------------------------------------------------------------------------
# Canonicalization


def _monomials_of(t: Term) -> tuple[list[Monomial], int]:
    """Flatten a term into (monomial list, constant)."""
    if isinstance(t, IntConst):
        return [], t.value
    if isinstance(t, Add):
        monos: list[Monomial] = []
        const = 0
        for a in t.args:
            ms, c = _monomials_of(a)
            monos.extend(ms)
            const += c
        return monos, const
    if isinstance(t, Sub):
        lm, lc = _monomials_of(t.lhs)
        rm, rc = _monomials_of(t.rhs)
        return lm + [Monomial(-m.coeff, m.factors) for m in rm], lc - rc
    if isinstance(t, Mul):
        coeff = 1
        factors: list[Term] = []
        for a in t.args:
            if isinstance(a, IntConst):
                coeff *= a.value
            else:
                factors.append(a)
        if coeff == 0:
            return [], 0
        if not factors:
            return [], coeff
        return [Monomial(coeff, tuple(factors))], 0
    if sort_of(t) != Sort.INT:
        raise UnsupportedFeature("array terms cannot appear in integer literals")
    return [Monomial(1, (t,))], 0


def _negated(monomials) -> tuple[Monomial, ...]:
    return tuple(Monomial(-m.coeff, m.factors) for m in monomials)


def canonicalize(lit: Formula, m: Model) -> list[CanonicalLiteral]:
    """Normalize an integer literal satisfied by `m` into canonical
    inequalities.  Equalities split into both directions; disequalities keep
    the strict direction that `m` satisfies.  Literals with no remaining
    monomials (ground truths) normalize to nothing."""
    if isinstance(lit, Not):
        inner = lit.arg
        if not isinstance(inner, Atom):
            raise UnsupportedFeature("negation of a non-atomic literal")
        lit = Atom(inner.rel.negate(), inner.lhs, inner.rhs)
    if not isinstance(lit, Atom):
        raise UnsupportedFeature(f"not an integer literal: {type(lit).__name__}")
    if sort_of(lit.lhs) != Sort.INT or sort_of(lit.rhs) != Sort.INT:
        raise UnsupportedFeature("literal operands are not integer-sorted")

    monos_l, const_l = _monomials_of(lit.lhs)
    monos_r, const_r = _monomials_of(lit.rhs)
    # move everything to the left: monomials <= const
    monomials = tuple(monos_l) + _negated(monos_r)
    const = const_r - const_l

    rel = lit.rel
    if rel == Rel.NE:
        diff = sum(_eval_monomial(mm, m) for mm in monomials)
        if diff < const:
            rel = Rel.LT
        elif diff > const:
            rel = Rel.GT
        else:
            raise NegativeSlack("disequality not satisfied by the model")

    if not monomials:
        return []  # ground literal, satisfied by precondition
    if rel == Rel.LE:
        return [CanonicalLiteral(monomials, const)]
    if rel == Rel.LT:
        return [CanonicalLiteral(monomials, const - 1)]
    if rel == Rel.GE:
        return [CanonicalLiteral(_negated(monomials), -const)]
    if rel == Rel.GT:
        return [CanonicalLiteral(_negated(monomials), -const - 1)]
    # equality: both directions
    return [
        CanonicalLiteral(monomials, const),
        CanonicalLiteral(_negated(monomials), -const),
    ]


def _eval_monomial(mono: Monomial, m: Model) -> int:
    prod = mono.coeff
    for f in mono.factors:
        prod *= eval_term(f, m)
    return prod


# ---------------------------------------------------------------------------
# Strengthening


def strengthen_literal(cl: CanonicalLiteral, m: Model) -> IntervalMap:
    """Interval bounds implying `cl`, all containing the model's values."""
    delta = IntervalMap()
    _strengthen_sum(list(cl.monomials), cl.bound, m, delta)
    return delta


def _strengthen_sum(monomials: list[Monomial], bound: int, m: Model, delta: IntervalMap) -> None:
    values = [_eval_monomial(mono, m) for mono in monomials]
    slack = bound - sum(values)
    if slack < 0:
        raise NegativeSlack(f"literal violated by the model (slack {slack})")
    k = len(monomials)
    for i, (mono, value) in enumerate(zip(monomials, values), start=1):
        _strengthen_monomial(mono, value + slack_share(slack, k, i), m, delta)


def _strengthen_monomial(mono: Monomial, bound: int, m: Model, delta: IntervalMap) -> None:
    # coeff * factors <= bound; divide the coefficient out first
    sign, target = 1, bound
    if mono.coeff != 1:
        sign = _sign(mono.coeff)
        target = sign * signed_floor_div(bound, mono.coeff)
    _strengthen_product(sign, list(mono.factors), target, m, delta)


def _strengthen_product(sign: int, factors: list[Term], bound: int, m: Model, delta: IntervalMap) -> None:
    # sign * (f1 * ... * fk) <= bound
    if len(factors) == 1:
        _strengthen_term(sign, factors[0], bound, m, delta)
        return
    values = [eval_term(f, m) for f in factors]
    product = sign
    for v in values:
        product *= v
    if product > bound:
        raise NegativeSlack("product literal violated by the model")
    if product >= 0:
        # every factor may shrink toward zero: 0 <= sign(v)*f <= |v|
        for f, v in zip(factors, values):
            s = _sign(v)
            _strengthen_term(s, f, abs(v), m, delta)
            _strengthen_term(-s, f, 0, m, delta)
    else:
        # every factor must move away from zero: sign(v)*f >= |v|
        for f, v in zip(factors, values):
            s = _sign(v)
            _strengthen_term(-s, f, -abs(v), m, delta)


def _strengthen_term(sign: int, t: Term, bound: int, m: Model, delta: IntervalMap) -> None:
    # sign * t <= bound for a single non-constant term
    if isinstance(t, (IntVar, Select)):
        interval = Interval(hi=bound) if sign > 0 else Interval(lo=-bound)
        delta.refine(t, interval)
        return
    if isinstance(t, (Add, Sub)):
        monomials, const = _monomials_of(t)
        if sign < 0:
            monomials = list(_negated(monomials))
            const = -const
        _strengthen_sum(list(monomials), bound - const, m, delta)
        return
    if isinstance(t, Mul):
        monomials, const = _monomials_of(t)
        if not monomials:  # constant product folded away
            if sign * const > bound:
                raise NegativeSlack("constant term violates the bound")
            return
        mono = monomials[0]
        _strengthen_monomial(Monomial(sign * mono.coeff, mono.factors), bound, m, delta)
        return
    if isinstance(t, IntConst):
        if sign * t.value > bound:
            raise NegativeSlack("constant term violates the bound")
        return
    raise UnsupportedFeature(f"cannot bound term of type {type(t).__name__}")


def product_to_intervals(product: ProductTerm, m: Model) -> IntervalMap:
    """Intersect the bounds of every integer literal in the product term.

    Keys are integer variables and select-like terms (a select over an array
    variable, a function application included), each bounded as a leaf.  Boolean
    literals contribute no intervals (the sampler pins them to the model's
    values); array-equality atoms and select-over-store terms must be
    rewritten away before calling this (`arrays.product_to_intervals`)."""
    out = IntervalMap()
    for lit in product:
        if _is_boolean_literal(lit):
            continue
        for cl in canonicalize(lit, m):
            for key, interval in strengthen_literal(cl, m).entries.items():
                out.refine(key, interval)
    return out


def _is_boolean_literal(lit: Formula) -> bool:
    if isinstance(lit, (BoolVar, BoolConst)):
        return True
    return isinstance(lit, Not) and isinstance(lit.arg, (BoolVar, BoolConst))
