"""Array pipeline: select-store elimination, equality rewriting, aliasing,
and the composed reduction, whose boxes are keyed on select-like terms."""

import hashlib
import itertools
import random

import pytest

from boxsampler.arrays import (
    build_aliasing,
    eliminate_select_store,
    product_to_intervals,
    rewrite_array_equality,
)
from boxsampler.errors import NoWitness
from boxsampler.implicant import compute_implicant
from boxsampler.intervals import Interval, contains
from boxsampler.sampler import canonical_assignment
from boxsampler.smtlib import print_term
from boxsampler.strengthen import product_to_intervals as int_product_to_intervals
from boxsampler.terms import (
    Add,
    And,
    ArrayVar,
    Atom,
    FunApp,
    FuncValue,
    IntConst,
    IntVar,
    Model,
    Mul,
    Rel,
    Select,
    Sort,
    Store,
    eval_formula,
    eval_term,
    iter_subterms,
    replace_in_formula,
    sort_of,
)
from oracle import (
    random_array_formula,
    random_array_model,
    random_array_term,
)

A, B = ArrayVar("a"), ArrayVar("b")
I, J, X = IntVar("i"), IntVar("j"), IntVar("x")


def _model(ints=None, arrays=None):
    return Model(
        ints=dict(ints or {}),
        funcs={k: FuncValue(*v) for k, v in (arrays or {}).items()},
    )


class TestEliminateSelectStore:
    def test_aliased_branch(self):
        lit = Atom(Rel.LE, Select(Store(A, I, IntConst(7)), J), IntConst(9))
        m = _model(ints={"i": 3, "j": 3}, arrays={"a": (0, {})})
        out = eliminate_select_store([lit], m, random.Random(0))
        assert Atom(Rel.EQ, I, J) in out
        assert Atom(Rel.LE, IntConst(7), IntConst(9)) in out

    def test_missed_branch(self):
        lit = Atom(Rel.LE, Select(Store(A, I, IntConst(7)), J), IntConst(9))
        m = _model(ints={"i": 3, "j": 4}, arrays={"a": (0, {})})
        out = eliminate_select_store([lit], m, random.Random(0))
        assert Atom(Rel.NE, I, J) in out
        assert Atom(Rel.LE, Select(A, J), IntConst(9)) in out

    def test_no_select_store_left(self):
        lit = Atom(Rel.LE, Select(Store(Store(A, I, IntConst(1)), J, IntConst(2)), X), IntConst(5))
        for seed in range(5):
            m = _model(
                ints={"i": seed % 3 - 1, "j": (seed + 1) % 3 - 1, "x": seed % 2},
                arrays={"a": (0, {})},
            )
            if not eval_formula(lit, m):
                continue
            out = eliminate_select_store([lit], m, random.Random(seed))
            for produced in out:
                assert _count_select_store(produced) == 0

    def test_nested_double_store_implies_original(self):
        rng = random.Random(17)
        lit = Atom(
            Rel.LE,
            Select(Store(Store(A, I, X), J, IntConst(2)), IntVar("k")),
            IntConst(3),
        )
        names = ["i", "j", "k", "x"]
        cases = 0
        while cases < 60:
            m = _model(
                ints={n: rng.randint(-2, 2) for n in names},
                arrays={"a": (rng.randint(-2, 2), {rng.randint(-2, 2): rng.randint(-2, 2)})},
            )
            if not eval_formula(lit, m):
                continue
            cases += 1
            out = eliminate_select_store([lit], m, rng)
            # every produced literal is satisfied by m
            for produced in out:
                assert eval_formula(produced, m)
            # conjunction implies the original over a small grid of models
            for point in itertools.product(range(-2, 3), repeat=4):
                for default in (-1, 0, 1):
                    pm = _model(
                        ints=dict(zip(names, point)),
                        arrays={"a": (default, {0: 1})},
                    )
                    if all(eval_formula(l, pm) for l in out):
                        assert eval_formula(lit, pm)


def _count_select_store(f) -> int:
    return sum(
        1
        for t in iter_subterms(f)
        if isinstance(t, Select) and isinstance(t.array, Store)
    )


class TestRewriteArrayEquality:
    def test_single_store_equality_example(self):
        # store(a,0,5) = b: fresh c with a = store(c,0,u), b = c, select(c,0) = 5
        lit = Atom(Rel.EQ, Store(A, IntConst(0), IntConst(5)), B)
        m = _model(arrays={"a": (0, {}), "b": (0, {0: 5})})
        out, m2, recipes = rewrite_array_equality([lit], m)
        select_lits = [l for l in out if isinstance(l.lhs, Select)]
        assert len(select_lits) == 1
        sel = select_lits[0]
        assert sel.rel == Rel.EQ and sel.rhs == IntConst(5)
        assert isinstance(sel.lhs.array, ArrayVar) and sel.lhs.index == IntConst(0)
        fresh_c = sel.lhs.array.name
        assert fresh_c in m2.funcs
        assert dict(recipes)["a"].array == ArrayVar(fresh_c)
        assert dict(recipes)["b"] == ArrayVar(fresh_c)
        for l in out:
            assert eval_formula(l, m2)

    def test_plain_equality_both_replaced(self):
        other = Atom(Rel.LE, Select(A, I), IntConst(4))
        lit = Atom(Rel.EQ, A, B)
        m = _model(ints={"i": 1}, arrays={"a": (2, {}), "b": (2, {})})
        out, m2, recipes = rewrite_array_equality([lit, other], m)
        recipe_map = dict(recipes)
        assert recipe_map["a"] == recipe_map["b"]
        # the other literal now reads through the fresh array
        (rewritten,) = [l for l in out if l.rel == Rel.LE]
        assert rewritten.lhs.array == recipe_map["a"]

    def test_disequality_witness_in_exceptions(self):
        lit = Atom(Rel.NE, A, B)
        m = _model(arrays={"a": (0, {}), "b": (0, {3: 1})})
        out, m2, _ = rewrite_array_equality([lit], m)
        (w_lit,) = out
        assert w_lit == Atom(Rel.NE, Select(A, IntConst(3)), Select(B, IntConst(3)))

    def test_disequality_witness_from_defaults(self):
        lit = Atom(Rel.NE, A, B)
        m = _model(arrays={"a": (0, {5: 9}), "b": (1, {5: 9})})
        out, _, _ = rewrite_array_equality([lit], m)
        (w_lit,) = out
        # witness index must avoid the shared exception at 5
        assert w_lit.lhs.index == IntConst(6)

    def test_no_witness_is_contract_violation(self):
        lit = Atom(Rel.NE, A, B)
        m = _model(arrays={"a": (0, {1: 2}), "b": (0, {1: 2})})
        with pytest.raises(NoWitness):
            rewrite_array_equality([lit], m)

    def test_same_base_equality_becomes_select_agreement(self):
        lhs = Store(A, I, IntConst(1))
        rhs = Store(A, J, IntConst(1))
        m = _model(ints={"i": 2, "j": 2}, arrays={"a": (0, {})})
        out, m2, recipes = rewrite_array_equality([Atom(Rel.EQ, lhs, rhs)], m)
        assert recipes == []
        assert all(sort_of(l.lhs) == Sort.INT for l in out)
        for l in out:
            assert eval_formula(l, m2)

    def test_rewrite_preserves_m_approximation_exhaustively(self):
        rng = random.Random(23)
        cases = 0
        while cases < 40:
            chain_len = rng.randint(0, 2)
            lhs = A
            for _ in range(chain_len):
                lhs = Store(lhs, IntConst(rng.randint(-1, 1)), IntConst(rng.randint(-1, 1)))
            rhs = B
            if rng.random() < 0.5:
                rhs = Store(rhs, IntConst(rng.randint(-1, 1)), IntConst(rng.randint(-1, 1)))
            lit = Atom(Rel.EQ, lhs, rhs)
            exceptions = {rng.randint(-1, 1): rng.randint(-1, 1)}
            m = _model(arrays={"a": (rng.randint(-1, 1), exceptions), "b": (0, {})})
            m.funcs["b"] = eval_term(lhs, m).copy()  # force the equality to hold
            if not eval_formula(lit, m):
                continue
            cases += 1
            out, m2, recipes = rewrite_array_equality([lit], m)
            for l in out:
                assert eval_formula(l, m2), (lit, l)


class TestBuildAliasing:
    def test_equal_indices_get_equalities(self):
        p = [Atom(Rel.LE, Select(A, I), IntConst(5)), Atom(Rel.GE, Select(A, J), IntConst(0))]
        m = _model(ints={"i": 3, "j": 3}, arrays={"a": (1, {})})
        assert build_aliasing(p, m) == [Atom(Rel.EQ, I, J), Atom(Rel.EQ, Select(A, I), Select(A, J))]

    def test_distinct_indices_get_disequalities(self):
        p = [Atom(Rel.LE, Select(A, I), IntConst(5)), Atom(Rel.GE, Select(A, J), IntConst(0))]
        m = _model(ints={"i": 1, "j": 2}, arrays={"a": (1, {})})
        assert build_aliasing(p, m) == [Atom(Rel.NE, I, J)]

    def test_pair_equalities_precede_all_disequalities(self):
        K = IntVar("k")
        p = [Atom(Rel.LE, Select(A, t), IntConst(5)) for t in (I, K, J)]
        m = _model(ints={"i": 3, "j": 3, "k": 0}, arrays={"a": (1, {})})
        assert build_aliasing(p, m) == [
            Atom(Rel.EQ, I, J),
            Atom(Rel.EQ, Select(A, I), Select(A, J)),
            Atom(Rel.NE, I, K),
            Atom(Rel.NE, K, J),
        ]

    def test_single_select_empty(self):
        p = [Atom(Rel.LE, Select(A, I), IntConst(5))]
        m = _model(ints={"i": 0}, arrays={"a": (0, {})})
        assert build_aliasing(p, m) == []

    def test_different_arrays_not_paired(self):
        p = [Atom(Rel.LE, Select(A, I), IntConst(5)), Atom(Rel.GE, Select(B, I), IntConst(0))]
        m = _model(ints={"i": 0}, arrays={"a": (0, {}), "b": (0, {})})
        assert build_aliasing(p, m) == []

    def test_function_applications_alias_too(self):
        p = [
            Atom(Rel.LE, FunApp("f", I), IntConst(5)),
            Atom(Rel.GE, FunApp("f", J), IntConst(0)),
        ]
        m = Model(ints={"i": 2, "j": 2}, funcs={"f": FuncValue(0)})
        assert build_aliasing(p, m) == [Atom(Rel.EQ, I, J), Atom(Rel.EQ, FunApp("f", I), FunApp("f", J))]

    def test_all_emitted_literals_satisfied_by_model(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_array_model(rng, ["i", "j", "x"], ["a"], ["f"])
            p = [
                Atom(Rel.LE, Select(A, I), IntConst(9)),
                Atom(Rel.LE, Select(A, J), IntConst(9)),
                Atom(Rel.LE, FunApp("f", X), IntConst(9)),
                Atom(Rel.LE, FunApp("f", Add((I, J))), IntConst(9)),
            ]
            for lit in build_aliasing(p, m):
                assert eval_formula(lit, m)


class TestFullPipeline:
    def test_array_free_reduces_to_integer_pipeline(self):
        product = [
            Atom(Rel.LE, Add((X, Mul((IntConst(-5), I)))), IntConst(7)),
            Atom(Rel.GE, X, IntConst(0)),
        ]
        m = Model(ints={"x": 12, "i": 2})
        res = product_to_intervals(product, m, random.Random(0))
        assert res.intervals.entries == int_product_to_intervals(product, m).entries
        assert res.reconstructions == []

    def test_select_bounds_and_samples_satisfy(self):
        product = [
            Atom(Rel.LE, Select(A, I), IntConst(5)),
            Atom(Rel.GE, I, IntConst(0)),
        ]
        m = _model(ints={"i": 2}, arrays={"a": (0, {})})
        res = product_to_intervals(product, m, random.Random(0))
        assert set(res.intervals.entries) == {Select(A, I), I}
        assert contains(res.intervals, m)
        sel_interval = res.intervals.get(Select(A, I))
        assert sel_interval.hi is not None and sel_interval.hi <= 5
        assert sel_interval.member(0)

    def test_nested_select_keyed_on_outer_term_only(self):
        inner = Select(B, IntVar("k"))
        outer = Select(A, inner)
        m = _model(ints={"k": 1}, arrays={"a": (4, {}), "b": (0, {})})
        res = product_to_intervals([Atom(Rel.GE, outer, IntConst(0))], m, random.Random(0))
        assert res.intervals.entries == {outer: Interval(0, None)}

    def test_symbol_spelled_like_a_fresh_name_stays_its_own_key(self):
        g = IntVar("!g0")
        product = [Atom(Rel.LE, Select(A, IntConst(0)), IntConst(5)), Atom(Rel.GE, g, IntConst(10))]
        m = _model(ints={"!g0": 12}, arrays={"a": (1, {})})
        res = product_to_intervals(product, m, random.Random(0))
        assert res.intervals.entries == {Select(A, IntConst(0)): Interval(None, 5), g: Interval(10, None)}

    def test_aliased_selects_pinned_to_shared_value(self):
        product = [
            Atom(Rel.LE, Select(A, I), IntConst(9)),
            Atom(Rel.LE, Select(A, J), IntConst(9)),
        ]
        m = _model(ints={"i": 3, "j": 3}, arrays={"a": (4, {})})
        res = product_to_intervals(product, m, random.Random(0))
        assert res.intervals.get(Select(A, I)) == Interval(4, 4)
        assert res.intervals.get(Select(A, J)) == Interval(4, 4)
        assert res.intervals.get(I) == Interval(3, 3)
        assert res.intervals.get(J) == Interval(3, 3)

    def test_end_to_end_m_approximation_small_grid(self):
        # every point of the produced box satisfies the product term
        rng = random.Random(71)
        cases = 0
        while cases < 30:
            m = random_array_model(rng, ["i", "j"], ["a"], [])
            product = []
            for _ in range(rng.randint(1, 2)):
                lhs = Select(A, rng.choice([I, J]))
                value = eval_term(lhs, m)
                product.append(Atom(Rel.LE, lhs, IntConst(value + rng.randint(0, 3))))
            product.append(Atom(Rel.GE, I, IntConst(m.ints["i"] - rng.randint(0, 2))))
            if not all(eval_formula(l, m) for l in product):
                continue
            cases += 1
            res = product_to_intervals(product, m, rng)
            assert contains(res.intervals, res.seed)
            # enumerate the clipped box over every keyed leaf
            keys = list(res.intervals.entries)
            ranges = []
            for key in keys:
                interval = res.intervals.get(key)
                lo = interval.lo if interval.lo is not None else -3
                hi = interval.hi if interval.hi is not None else 3
                lo, hi = max(lo, -3), min(hi, 3)
                if lo > hi:
                    ranges.append([])
                else:
                    ranges.append(range(lo, hi + 1))
            for point in itertools.product(*ranges):
                assignment = dict(zip(keys, point))
                pm = _grid_model(assignment, res.seed)
                if pm is None:
                    continue
                for lit in product:
                    assert eval_formula(lit, pm)


def _grid_model(assignment, seed):
    """Build a full model realizing the given leaf values, when consistent."""
    pm = Model(ints=dict(seed.ints), funcs={n: f.copy() for n, f in seed.funcs.items()})
    for key, value in assignment.items():
        if isinstance(key, IntVar):
            pm.ints[key.name] = value
    for key, value in assignment.items():
        if isinstance(key, Select):
            idx = eval_term(key.index, pm)
            current = pm.funcs[key.array.name]
            if current.apply(idx) != value:
                pm.funcs[key.array.name] = current.with_store(idx, value)
    # the rewrite may be inconsistent when two aliased keys demand different
    # values; aliasing literals prevent that inside the box, so re-check
    for key, value in assignment.items():
        if isinstance(key, Select) and eval_term(key, pm) != value:
            return None
    return pm


def _pipeline_case(rng):
    """A seeded implicant over ints i, j, k, arrays a, b and function f, with
    nested accesses, `a` read through a store half the time, and an array
    equality (forced to hold) or disequality a quarter of the time each."""
    ints, arrs, funs = ["i", "j", "k"], ["a", "b"], ["f"]
    while True:
        m = random_array_model(rng, ints, arrs, funs)
        f = random_array_formula(rng, ints, arrs, funs, 3)
        if rng.random() < 0.5:
            idx = random_array_term(rng, ints, ["b"], funs, 1)
            f = replace_in_formula(f, A, Store(A, idx, IntConst(rng.randint(-3, 3))))
        roll = rng.random()
        if roll < 0.4:
            lhs = A
            for _ in range(rng.randint(0, 2)):
                lhs = Store(lhs, random_array_term(rng, ints, [], [], 1), IntConst(rng.randint(-3, 3)))
            m.funcs["b"] = eval_term(lhs, m).copy()
            f = And((f, Atom(Rel.EQ, lhs, B)))
        elif roll < 0.55:
            f = And((f, Atom(Rel.NE, A, B)))
        if eval_formula(f, m):
            return compute_implicant(f, m, rng), m


def test_pipeline_boxes_match_pinned_digest():
    """`product_to_intervals` on 600 seeded implicants: the box keys in order
    with their bounds, the extended seed and the reconstructions equal the
    pinned ones."""
    digest = hashlib.sha256()
    stores = reconstructed = 0
    for n in range(600):
        rng = random.Random(n)
        product, m = _pipeline_case(rng)
        stores += any(isinstance(t, Store) for lit in product for t in iter_subterms(lit))
        res = product_to_intervals(product, m, rng)
        reconstructed += bool(res.reconstructions)
        boxes = [(print_term(k), iv.lo, iv.hi) for k, iv in res.intervals.entries.items()]
        recipes = [(name, print_term(t)) for name, t in res.reconstructions]
        digest.update(repr((n, boxes, canonical_assignment(res.seed), recipes)).encode())
    assert stores > 100 and reconstructed > 100
    assert digest.hexdigest() == "1e7edce15c74ec099466ddb34df90945f6d92978cabc2b53a46b68b3556d35b1"
