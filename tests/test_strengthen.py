"""Literal normalization and the interval strengthening rules."""

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler import strengthen as strengthen_mod
from boxsampler.errors import BoxsamplerError, DivisorZero, NegativeSlack, TimeLimit, UnsupportedFeature
from boxsampler.intervals import Interval, IntervalMap, contains
from boxsampler.minisolver import LocalSolverClient
from boxsampler.sampler import SamplerConfig, sample_formula
from boxsampler.smtlib import parse_problem, print_term
from boxsampler.strengthen import (
    CanonicalLiteral,
    LiteralForms,
    _strengthen_sum,
    canonicalize,
    product_to_intervals,
    signed_floor_div,
    slack_share,
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
    Values,
    eval_formula,
    iter_nodes,
    preprocess,
    to_nnf,
)
from oracle import env_of_model, intersect, o_formula, random_product_term, satisfied_atom

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

    def test_negated_atom_is_not_a_literal(self):
        # NNF flips a negated atom's relation, so no literal is one
        m = Model(ints={"x": 3})
        with pytest.raises(UnsupportedFeature, match="not an integer literal: Not"):
            canonicalize(Not(Atom(Rel.LT, X, IntConst(3))), m)

    def test_ground_literal_normalizes_to_nothing(self):
        m = Model(ints={"x": 1})
        assert canonicalize(Atom(Rel.LE, IntConst(3), IntConst(5)), m) == ()
        assert canonicalize(Atom(Rel.GT, Add((IntConst(2), IntConst(2))), IntConst(3)), m) == ()

    def test_cancelling_monomials_stay_separate(self):
        # x - x keeps both monomials (no merging) and pins x to its value
        m = Model(ints={"x": 1})
        (cl,) = canonicalize(Atom(Rel.LE, Sub(X, X), IntConst(0)), m)
        assert len(cl.monomials) == 2
        assert product_to_intervals([Atom(Rel.LE, Sub(X, X), IntConst(0))], m).get(X) == Interval(1, 1)

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

    return sum(_eval_monomial(mono, Values(m)) for mono in cl.monomials) <= cl.bound


class TestStrengthenLiteral:
    def test_intro_example_slack_split(self):
        m = Model(ints={"x": 12, "y": 2})
        delta = product_to_intervals([Atom(Rel.LE, Add((X, lin(-5, Y))), IntConst(7))], m)
        assert delta.get(X) == Interval(None, 15)
        assert delta.get(Y) == Interval(2, None)

    def test_negative_product_moves_away_from_zero(self):
        m = Model(ints={"x1": 5, "x2": -9})
        delta = product_to_intervals([Atom(Rel.LE, Mul((X1, X2)), IntConst(-42))], m)
        assert delta.get(X1) == Interval(5, None)
        assert delta.get(X2) == Interval(None, -9)

    def test_zero_factor_pinned(self):
        m = Model(ints={"x": 0, "y": 7})
        delta = product_to_intervals([Atom(Rel.LE, Mul((X, Y)), IntConst(100))], m)
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
            delta = product_to_intervals([Atom(Rel.LE, Add((X, Y)), IntConst(bound))], m)
            assert delta.get(X).hi + delta.get(Y).hi == bound

    def test_violated_literal_raises(self):
        m = Model(ints={"x": 10})
        with pytest.raises(NegativeSlack):
            product_to_intervals([Atom(Rel.LE, X, IntConst(5))], m)

    def test_compound_factor_recurses(self):
        # (x + y) * x <= c with positive product: both the factor x and the
        # sum's leaves get bounds, all containing the model
        m = Model(ints={"x": 2, "y": 3})
        delta = product_to_intervals([Atom(Rel.LE, Mul((Add((X, Y)), X)), IntConst(50))], m)
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


def _sum_in_product_literal(rng, m, names):
    """c*(u + v - k)*w or (u - v)*(v + w + k), under a random relation
    that `m` satisfies."""
    u, v, w = (IntVar(rng.choice(names)) for _ in range(3))
    k = IntConst(rng.randint(-3, 3))
    if rng.random() < 0.5:
        lhs = Mul((IntConst(rng.choice([-3, -2, -1, 2, 3])), Sub(Add((u, v)), k), w))
    else:
        lhs = Mul((Sub(u, v), Add((v, w, k))))
    return satisfied_atom(rng, lhs, m)


def test_product_boxes_match_pinned_digest():
    """`product_to_intervals` on 2,000 seeded product terms over x, y, z,
    each with its model: degree-2 literals, and sums inside products placed
    among them.  The box keys in order with their bounds equal the pinned
    ones."""
    names = ["x", "y", "z"]
    digest = hashlib.sha256()
    sums = 0
    for n in range(2000):
        rng = random.Random(n)
        m = Model(ints={name: rng.randint(-6, 6) for name in names})
        product = random_product_term(rng, m, names, rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            product.insert(rng.randint(0, len(product)), _sum_in_product_literal(rng, m, names))
            sums += 1
        box = product_to_intervals(product, m)
        digest.update(repr((n, [(print_term(k), iv.lo, iv.hi) for k, iv in box.entries.items()])).encode())
    assert sums > 1500
    assert digest.hexdigest() == "dcb59b99620303e15cd049176e600c081083a2ba452db98c01d599a828aadc49"


# ---------------------------------------------------------------------------
# The run's table of normal forms, and the deadline


Z = IntVar("z")
_LEAVES = st.one_of(st.sampled_from([X, Y, Z]), st.integers(-4, 4).map(IntConst))
_SCALED = st.tuples(st.sampled_from([-3, -2, -1, 2, 3]), st.sampled_from([X, Y, Z])).map(
    lambda cv: Mul((IntConst(cv[0]), cv[1]))
)
_SUMS = st.lists(st.one_of(_LEAVES, _SCALED), min_size=2, max_size=3).map(lambda ts: Add(tuple(ts)))
_PRODUCTS = st.lists(st.one_of(_LEAVES, _SUMS), min_size=2, max_size=3).map(lambda ts: Mul(tuple(ts)))
_SIDES = st.one_of(_LEAVES, _SCALED, _SUMS, _PRODUCTS, st.builds(Sub, _SUMS, _LEAVES))
_ATOMS = st.builds(Atom, st.sampled_from(list(Rel)), _SIDES, _SIDES)
_MODELS = st.builds(lambda x, y, z: Model(ints={"x": x, "y": y, "z": z}), *[st.integers(-6, 6)] * 3)


def _outcome(make_box):
    """The box's entries in order, or the type of the error raised."""
    try:
        box = make_box()
    except BoxsamplerError as exc:
        return type(exc)
    return [(key, iv.lo, iv.hi) for key, iv in box.entries.items()]


def _reference_box(lit, m) -> IntervalMap:
    box, values = IntervalMap(), Values(m)
    for cl in canonicalize(lit, m):
        _strengthen_sum(cl.monomials, cl.bound, values, box)
    return box


@settings(max_examples=300, deadline=None)
@given(_ATOMS, st.lists(_MODELS, min_size=1, max_size=6))
def test_the_run_forms_give_the_boxes_of_canonicalize(lit, models):
    """Over random linear and product atoms, disequalities included, one
    run's table normalizes the atom once and gives, under each model that
    satisfies it, the box that canonicalize and _strengthen_sum give."""
    forms = LiteralForms(lit)
    for m in models:
        if eval_formula(lit, m):
            assert _outcome(lambda: product_to_intervals([lit], m, forms)) == _outcome(lambda: _reference_box(lit, m))
            assert len(forms.table) == 1


def test_a_disequality_takes_each_epochs_direction_from_one_form():
    lit = Atom(Rel.NE, Add((X, Y)), IntConst(3))
    forms = LiteralForms(lit)
    below = product_to_intervals([lit], Model(ints={"x": 0, "y": 1}), forms)
    above = product_to_intervals([lit], Model(ints={"x": 5, "y": 1}), forms)
    assert (below.get(X), below.get(Y)) == (Interval(None, 1), Interval(None, 1))
    assert (above.get(X), above.get(Y)) == (Interval(4, None), Interval(0, None))
    assert len(forms.table) == 1


def test_literals_outside_the_formula_are_not_kept():
    inside = Atom(Rel.LE, X, IntConst(5))
    forms = LiteralForms(inside)
    m = Model(ints={"x": 1, "y": 2})
    product_to_intervals([inside, Atom(Rel.LE, Y, IntConst(5)), Atom(Rel.GE, Add((X, Y)), IntConst(0))], m, forms)
    assert forms.table.keys() == {inside}


POINT_BLOCKING = (
    "(declare-const p Int)(declare-const q Int)(declare-const r Int)"
    "(assert (and (>= p (- 30)) (<= p 30) (>= q (- 28)) (<= q 32) (>= r (- 35)) (<= r 25)"
    " (= (- (+ p (* 2 q)) (* 3 r)) 7)))"
)


def test_a_blocking_run_normalizes_each_formula_atom_once(monkeypatch):
    """A 200-epoch blocking run on a point_blocking problem (the equality
    pins every box, so each epoch draws one sample) flattens the sides of
    its literals exactly as normalizing each atom of the formula once
    does: each call of `_monomials_of` on the same terms, as often."""
    problem = parse_problem(POINT_BLOCKING)
    atoms = [n for n in iter_nodes(to_nnf(preprocess(problem.assertion))) if isinstance(n, Atom)]
    calls = []
    flatten = strengthen_mod._monomials_of

    def counting(t):
        calls.append(t)
        return flatten(t)

    monkeypatch.setattr(strengthen_mod, "_monomials_of", counting)
    for atom in atoms:
        canonicalize(atom, Model())
    once, calls[:] = Counter(calls), []
    stats = sample_formula(problem, SamplerConfig(strategy="blocking", max_samples=200), LocalSolverClient())
    assert stats.epochs == stats.unique_samples == 200
    assert Counter(calls) == once


class TestDeadline:
    """With a deadline, strengthening reads the clock before every 8th
    literal, the first included, and raises TimeLimit once it has passed."""

    PRODUCT = [Atom(Rel.LE, X, IntConst(k)) for k in range(20, 40)]  # 20 literals

    class Clock:
        def __init__(self, now: float):
            self.now, self.reads = now, 0

        def monotonic(self) -> float:
            self.reads += 1
            return self.now

    def test_the_clock_is_read_every_eight_literals(self, monkeypatch):
        clock = self.Clock(0.0)
        monkeypatch.setattr(strengthen_mod, "time", clock)
        box = product_to_intervals(self.PRODUCT, Model(ints={"x": 0}), None, 1.0)
        assert clock.reads == 3  # before literals 0, 8 and 16
        assert box == product_to_intervals(self.PRODUCT, Model(ints={"x": 0}))
        assert clock.reads == 3  # no deadline, no read

    def test_a_passed_deadline_raises_time_limit(self, monkeypatch):
        clock = self.Clock(2.0)
        monkeypatch.setattr(strengthen_mod, "time", clock)
        with pytest.raises(TimeLimit):
            product_to_intervals(self.PRODUCT, Model(ints={"x": 0}), None, 1.0)
        assert clock.reads == 1
