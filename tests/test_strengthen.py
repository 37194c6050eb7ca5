"""Literal normalization and the interval strengthening rules."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxsampler.errors import DivisorZero, NegativeSlack
from boxsampler.intervals import Interval, contains
from boxsampler.strengthen import (
    CanonicalLiteral,
    Monomial,
    canonicalize,
    product_to_intervals,
    signed_floor_div,
    slack_share,
    strengthen_literal,
)
from boxsampler.terms import (
    Add,
    Atom,
    IntConst,
    IntVar,
    Model,
    Mul,
    Not,
    Rel,
    Sub,
)
from oracle import env_of_model, intersect, o_formula, random_product_term

X, Y = IntVar("x"), IntVar("y")
X1, X2 = IntVar("x1"), IntVar("x2")


def lin(c, v):
    return Mul((IntConst(c), v))


class TestSlackShare:
    def test_paper_split_three_two(self):
        assert slack_share(5, 2, 1) == 3
        assert slack_share(5, 2, 2) == 2

    def test_zero_slack(self):
        for i in range(1, 6):
            assert slack_share(0, 5, i) == 0

    @given(st.integers(0, 10_000), st.integers(1, 40))
    def test_shares_sum_and_range(self, n, k):
        shares = [slack_share(n, k, i) for i in range(1, k + 1)]
        assert sum(shares) == n
        assert all(s in (n // k, n // k + 1) for s in shares)

    def test_negative_slack_rejected(self):
        with pytest.raises(NegativeSlack):
            slack_share(-1, 2, 1)


class TestSignedFloorDiv:
    def test_paper_example(self):
        # -5y <= -8 divides to y >= 2 because the -8/-5 quotient rounds up
        assert signed_floor_div(-8, -5) == 2

    def test_identity(self):
        for x in range(-10, 11):
            assert signed_floor_div(x, 1) == x

    def test_zero_divisor(self):
        with pytest.raises(DivisorZero):
            signed_floor_div(4, 0)

    @given(st.integers(-400, 400), st.integers(-20, 20).filter(lambda y: y != 0))
    def test_soundness_direction(self, x, y):
        q = signed_floor_div(x, y)
        if y > 0:
            assert y * q <= x < y * (q + 1)
        else:
            assert y * q <= x < y * (q - 1)


class TestCanonicalize:
    def test_ge_flips(self):
        m = Model(ints={"x": 3})
        (cl,) = canonicalize(Atom(Rel.GE, X, IntConst(0)), m)
        assert cl.bound == 0
        assert [mono.coeff for mono in cl.monomials] == [-1]

    def test_strict_less_tightens(self):
        m = Model(ints={"x": 3})
        (cl,) = canonicalize(Atom(Rel.LT, X, IntConst(5)), m)
        assert cl.bound == 4
        assert [mono.coeff for mono in cl.monomials] == [1]

    def test_disequality_takes_satisfied_direction(self):
        m = Model(ints={"x": 1, "y": 4})
        (cl,) = canonicalize(Atom(Rel.NE, X, Y), m)
        # x - y <= -1 holds under m and implies x != y over the whole box
        assert cl.bound == -1
        env_checks = []
        for xv in range(-5, 6):
            for yv in range(-5, 6):
                v = sum(
                    mono.coeff * (xv if mono.factors == (X,) else yv) for mono in cl.monomials
                )
                if v <= cl.bound:
                    env_checks.append(xv != yv)
        assert all(env_checks)

    def test_equality_splits_both_directions(self):
        m = Model(ints={"x": 2, "y": 3})
        cls = canonicalize(Atom(Rel.EQ, Add((X, Y)), IntConst(5)), m)
        assert len(cls) == 2
        assert {cl.bound for cl in cls} == {5, -5}

    def test_negated_atom_flipped_first(self):
        m = Model(ints={"x": 3})
        out_not = canonicalize(Not(Atom(Rel.LT, X, IntConst(3))), m)
        out_ge = canonicalize(Atom(Rel.GE, X, IntConst(3)), m)
        assert out_not == out_ge

    def test_ground_literal_normalizes_to_nothing(self):
        m = Model(ints={"x": 1})
        assert canonicalize(Atom(Rel.LE, IntConst(3), IntConst(5)), m) == []
        assert canonicalize(Atom(Rel.GT, Add((IntConst(2), IntConst(2))), IntConst(3)), m) == []

    def test_cancelling_monomials_stay_separate(self):
        # x - x keeps both monomials (no merging) and pins x to its value
        m = Model(ints={"x": 1})
        (cl,) = canonicalize(Atom(Rel.LE, Sub(X, X), IntConst(0)), m)
        assert len(cl.monomials) == 2
        delta = strengthen_literal(cl, m)
        assert delta.get(X) == Interval(1, 1)

    def test_outputs_satisfied_by_model_and_imply_source(self):
        rng = random.Random(31)
        names = ["x", "y"]
        for _ in range(200):
            m = Model(ints={n: rng.randint(-5, 5) for n in names})
            lit = random_product_term(rng, m, names, 1)[0]
            cls = canonicalize(lit, m)
            for xv in range(-5, 6):
                for yv in range(-5, 6):
                    point = Model(ints={"x": xv, "y": yv})
                    env = env_of_model(point)
                    all_hold = all(
                        _eval_cl(cl, point) for cl in cls
                    )
                    if all_hold:
                        assert o_formula(lit, env)
            assert all(_eval_cl(cl, m) for cl in cls)


def _eval_cl(cl: CanonicalLiteral, m: Model) -> bool:
    from boxsampler.strengthen import _eval_monomial

    return sum(_eval_monomial(mono, m) for mono in cl.monomials) <= cl.bound


class TestStrengthenLiteral:
    def test_intro_example_slack_split(self):
        m = Model(ints={"x": 12, "y": 2})
        (cl,) = canonicalize(Atom(Rel.LE, Add((X, lin(-5, Y))), IntConst(7)), m)
        delta = strengthen_literal(cl, m)
        assert delta.get(X) == Interval(None, 15)
        assert delta.get(Y) == Interval(2, None)

    def test_negative_product_moves_away_from_zero(self):
        m = Model(ints={"x1": 5, "x2": -9})
        (cl,) = canonicalize(Atom(Rel.LE, Mul((X1, X2)), IntConst(-42)), m)
        delta = strengthen_literal(cl, m)
        assert delta.get(X1) == Interval(5, None)
        assert delta.get(X2) == Interval(None, -9)

    def test_zero_factor_pinned(self):
        m = Model(ints={"x": 0, "y": 7})
        (cl,) = canonicalize(Atom(Rel.LE, Mul((X, Y)), IntConst(100)), m)
        delta = strengthen_literal(cl, m)
        assert delta.get(X) == Interval(0, 0)
        assert delta.get(Y) == Interval(0, 7)
        for xv, yv in itertools.product(range(-1, 2), range(-10, 11)):
            if delta.get(X).member(xv) and delta.get(Y).member(yv):
                assert xv * yv <= 100

    def test_slack_conservation_in_addition(self):
        # child upper bounds sum exactly to the original bound
        rng = random.Random(77)
        for _ in range(100):
            m = Model(ints={"x": rng.randint(-5, 5), "y": rng.randint(-5, 5)})
            bound = m.ints["x"] + m.ints["y"] + rng.randint(0, 9)
            (cl,) = canonicalize(Atom(Rel.LE, Add((X, Y)), IntConst(bound)), m)
            delta = strengthen_literal(cl, m)
            assert delta.get(X).hi + delta.get(Y).hi == bound

    def test_violated_literal_raises(self):
        m = Model(ints={"x": 10})
        with pytest.raises(NegativeSlack):
            strengthen_literal(CanonicalLiteral((Monomial(1, (X,)),), 5), m)

    def test_compound_factor_recurses(self):
        # (x + y) * x <= c with positive product: both the factor x and the
        # sum's leaves get bounds, all containing the model
        m = Model(ints={"x": 2, "y": 3})
        (cl,) = canonicalize(Atom(Rel.LE, Mul((Add((X, Y)), X)), IntConst(50)), m)
        delta = strengthen_literal(cl, m)
        assert contains(delta, m)
        for xv in range(-8, 9):
            for yv in range(-8, 9):
                if delta.get(X).member(xv) and delta.get(Y).member(yv):
                    assert (xv + yv) * xv <= 50


class TestProductToIntervals:
    def test_intro_example_full(self):
        m = Model(ints={"x": 12, "y": 2})
        product = [
            Atom(Rel.LE, Sub(X, lin(5, Y)), IntConst(7)),
            Atom(Rel.GE, X, IntConst(0)),
        ]
        iv = product_to_intervals(product, m)
        assert iv.get(X) == Interval(0, 15)
        assert iv.get(Y) == Interval(2, None)

    def test_empty_product_is_top(self):
        assert len(product_to_intervals([], Model())) == 0

    def test_repeated_leaf_accumulates_by_intersection(self):
        m = Model(ints={"x": 3})
        product = [
            Atom(Rel.LE, X, IntConst(10)),
            Atom(Rel.GE, X, IntConst(-2)),
            Atom(Rel.LE, X, IntConst(7)),
        ]
        iv = product_to_intervals(product, m)
        assert iv.get(X) == Interval(-2, 7)

    def test_soundness_on_random_products_exhaustive(self):
        rng = random.Random(99)
        names = ["x", "y", "z"]
        for _ in range(150):
            m = Model(ints={n: rng.randint(-5, 5) for n in names})
            product = random_product_term(rng, m, names, rng.randint(1, 3))
            iv = product_to_intervals(product, m)
            assert contains(iv, m)
            ranges = []
            for n in names:
                interval = iv.get(IntVar(n))
                lo = interval.lo if interval.lo is not None else -8
                hi = interval.hi if interval.hi is not None else 8
                ranges.append(range(max(lo, -8), min(hi, 8) + 1))
            for point in itertools.product(*ranges):
                pm = Model(ints=dict(zip(names, point)))
                env = env_of_model(pm)
                assert all(o_formula(lit, env) for lit in product)

    def test_conjunction_closure_matches_pairwise_intersection(self):
        rng = random.Random(55)
        names = ["x", "y"]
        for _ in range(100):
            m = Model(ints={n: rng.randint(-4, 4) for n in names})
            p1 = random_product_term(rng, m, names, 2)
            p2 = random_product_term(rng, m, names, 2)
            combined = product_to_intervals(p1 + p2, m)
            pairwise = intersect(product_to_intervals(p1, m), product_to_intervals(p2, m))
            assert combined.entries == pairwise.entries
