"""Interval domain: intersection, membership, formula views."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxsampler.errors import EmptyIntersection
from boxsampler.intervals import (
    Interval,
    IntervalMap,
    contains,
    neg_to_formula,
    to_json_obj,
)
from boxsampler.terms import (
    And,
    Atom,
    IntConst,
    IntVar,
    Model,
    Or,
    Rel,
    eval_formula,
)
from oracle import intersect, to_formula

X, Y = IntVar("x"), IntVar("y")


def iv_of(**kw) -> IntervalMap:
    return IntervalMap({IntVar(k): Interval(*v) for k, v in kw.items()})


class TestIntersect:
    def test_overlap(self):
        out = intersect(iv_of(x=(0, 10)), iv_of(x=(5, 20)))
        assert out.get(X) == Interval(5, 10)

    def test_disjoint_keys_kept(self):
        out = intersect(iv_of(x=(0, 1)), iv_of(y=(2, 3)))
        assert out.get(X) == Interval(0, 1) and out.get(Y) == Interval(2, 3)

    def test_empty_intersection_raises(self):
        with pytest.raises(EmptyIntersection):
            intersect(iv_of(x=(0, 1)), iv_of(x=(3, 4)))

    def test_infinite_endpoints(self):
        out = intersect(iv_of(x=(None, 10)), iv_of(x=(2, None)))
        assert out.get(X) == Interval(2, 10)

    def test_maps_sharing_a_point_never_empty(self):
        rng = random.Random(3)
        for _ in range(300):
            point = {n: rng.randint(-20, 20) for n in "xyz"}
            maps = []
            for _ in range(2):
                entries = {}
                for n, v in point.items():
                    if rng.random() < 0.8:
                        lo = v - rng.randint(0, 10) if rng.random() < 0.8 else None
                        hi = v + rng.randint(0, 10) if rng.random() < 0.8 else None
                        entries[IntVar(n)] = Interval(lo, hi)
                maps.append(IntervalMap(entries))
            merged = intersect(maps[0], maps[1])
            assert contains(merged, Model(ints=point))

    def test_commutative_associative_idempotent(self):
        a, b, c = iv_of(x=(0, 10)), iv_of(x=(5, 20), y=(None, 3)), iv_of(y=(0, None))
        assert intersect(a, b).entries == intersect(b, a).entries
        assert intersect(intersect(a, b), c).entries == intersect(a, intersect(b, c)).entries
        assert intersect(a, a).entries == a.entries


class TestContains:
    def test_intro_seed_inside(self):
        iv = iv_of(x=(0, 15), y=(2, None))
        assert contains(iv, Model(ints={"x": 12, "y": 2}))

    def test_outside(self):
        assert not contains(iv_of(x=(0, 15)), Model(ints={"x": 16}))

    def test_agrees_with_direct_check(self):
        rng = random.Random(9)
        for _ in range(300):
            lo = rng.randint(-10, 10)
            hi = lo + rng.randint(0, 10)
            iv = iv_of(x=(lo if rng.random() < 0.8 else None, hi if rng.random() < 0.8 else None))
            v = rng.randint(-25, 25)
            interval = iv.get(X)
            expected = (interval.lo is None or v >= interval.lo) and (
                interval.hi is None or v <= interval.hi
            )
            assert contains(iv, Model(ints={"x": v})) == expected


class TestFormulaViews:
    def test_closed_box(self):
        f = to_formula(iv_of(x=(0, 15)))
        assert f == And((Atom(Rel.GE, X, IntConst(0)), Atom(Rel.LE, X, IntConst(15))))

    def test_half_open(self):
        f = to_formula(iv_of(y=(2, None)))
        assert f == Atom(Rel.GE, Y, IntConst(2))

    def test_empty_map_is_true(self):
        assert to_formula(IntervalMap()) == And(())

    def test_negation_box(self):
        f = neg_to_formula(iv_of(x=(0, 15)))
        assert f == Or((Atom(Rel.LT, X, IntConst(0)), Atom(Rel.GT, X, IntConst(15))))

    def test_negation_of_unbounded_map_is_false(self):
        assert neg_to_formula(IntervalMap({X: Interval(None, None)})) == Or(())

    def test_views_are_complementary(self):
        rng = random.Random(21)
        for _ in range(200):
            entries = {}
            for n in "xy":
                lo = rng.randint(-8, 0) if rng.random() < 0.7 else None
                hi = rng.randint(0, 8) if rng.random() < 0.7 else None
                entries[IntVar(n)] = Interval(lo, hi)
            iv = IntervalMap(entries)
            m = Model(ints={n: rng.randint(-12, 12) for n in "xy"})
            pos = eval_formula(to_formula(iv), m)
            negf = eval_formula(neg_to_formula(iv), m)
            assert pos != negf
            assert pos == contains(iv, m)


class TestJson:
    def test_serialization_shape(self):
        obj = to_json_obj(iv_of(x=(0, 15), y=(2, None)))
        assert obj == {"x": [0, 15], "y": [2, "+inf"]}
        json.dumps(obj)  # round-trips through the json module

    def test_unbounded_low(self):
        assert to_json_obj(iv_of(x=(None, 3))) == {"x": ["-inf", 3]}


class TestInterval:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    @given(st.integers(-50, 50), st.integers(0, 20), st.integers(-60, 60))
    def test_member(self, lo, width, v):
        interval = Interval(lo, lo + width)
        assert interval.member(v) == (lo <= v <= lo + width)
