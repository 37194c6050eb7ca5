"""Compiled evaluator: agreement with eval_formula and the oracle, coverage
values, hoisting of deep formulas, and the generated-source invariant."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler.compiled import compile_node_values, compile_predicate
from boxsampler.coverage import CoverageBitmap, record_sample
from boxsampler.errors import UnassignedSymbol
from boxsampler.smtlib import parse_problem
from boxsampler.terms import (
    FORMULA_TYPES,
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
    eval_formula,
    eval_term,
    free_symbols,
    iter_nodes,
    preprocess,
    sort_of,
    to_nnf,
)
from oracle import deep_and_or, env_of_model, o_formula, random_array_formula, random_array_model, random_formula

INTS = ["x", "y", "z"]
ARRAYS, FUNS = ["a", "b"], ["g"]
X = IntVar("x")


def _int_model(rng) -> Model:
    return Model(ints={n: rng.randint(-6, 6) for n in INTS})


def _array_model(rng) -> Model:
    m = random_array_model(rng, INTS, ARRAYS, FUNS)
    m.bools = {"p": rng.random() < 0.5, "q": rng.random() < 0.5}
    return m


def _array_term(rng):
    return random_array_formula(rng, INTS, ARRAYS, FUNS, 0).lhs


def _store_chain(rng):
    arr = ArrayVar(rng.choice(ARRAYS))
    for _ in range(rng.randint(0, 2)):
        arr = Store(arr, _array_term(rng), _array_term(rng))
    return arr


def _full_grammar_formula(rng, depth: int):
    """Array formulas plus stores, array equality, term ite, Booleans,
    pairwise disequalities and negated connectives, as the parser builds
    for =>, xor and distinct."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return random_array_formula(rng, INTS, ARRAYS, FUNS, 1)
    if roll < 0.35:
        return Atom(rng.choice([Rel.EQ, Rel.NE]), _store_chain(rng), _store_chain(rng))
    if roll < 0.45:
        read = Select(_store_chain(rng), _array_term(rng))
        ite = Ite(_full_grammar_formula(rng, depth - 1), read, _array_term(rng))
        return Atom(rng.choice(list(Rel)), ite, _array_term(rng))
    if roll < 0.5:
        return BoolVar(rng.choice(["p", "q"])) if rng.random() < 0.8 else BoolConst(rng.random() < 0.5)
    if roll < 0.55:
        xs = [_array_term(rng) for _ in range(rng.randint(2, 3))]
        return And(tuple(Atom(Rel.NE, a, b) for i, a in enumerate(xs) for b in xs[i + 1 :]))
    kids = [_full_grammar_formula(rng, depth - 1) for _ in range(2)]
    connective = rng.choice([And, Or])(tuple(kids))
    return connective if roll < 0.8 else Not(connective)


def _symbols(f) -> list[str]:
    return list(free_symbols(f))


def _args(m: Model, names: list[str]) -> list:
    env = {**m.ints, **m.bools, **m.funcs}
    return [env[n] for n in names]


def _model_check(f):
    """`check(model)`: the truth value of `f` under a Model, read from the
    node values compiled over the symbols of `f` (the root is node 0)."""
    names = _symbols(f)
    values, _, bool_nodes = compile_node_values(f, names)
    assert bool_nodes[0] == 0
    return lambda m: values(*_args(m, names))[1][0]


def _interpreted_record(bm: CoverageBitmap, f, sample: Model) -> None:
    """Coverage recording by evaluating every node on its own with the
    interpreter: the reference for the compiled recorder."""
    for i, node in enumerate(iter_nodes(f)):
        width = bm.widths[i]
        if width == 0:
            continue
        if width == 1:
            bits, mask = (1 if eval_formula(node, sample) else 0), 1
        else:
            bits, mask = eval_term(node, sample) & (2**64 - 1), 2**64 - 1
        bm.seen_one[i] |= bits
        bm.seen_zero[i] |= ~bits & mask


class TestAgreement:
    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_int_formulas_match_interpreter_and_oracle(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, INTS, 4)
        check = _model_check(f)
        pred = compile_predicate([f], INTS)
        for _ in range(5):
            m = _int_model(rng)
            expected = o_formula(f, env_of_model(m))
            assert eval_formula(f, m) == expected
            assert bool(check(m)) == expected
            assert bool(pred(*(m.ints[n] for n in INTS))) == expected

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_array_formulas_match_interpreter_and_oracle(self, seed):
        rng = random.Random(seed)
        f = _full_grammar_formula(rng, 3)
        check = _model_check(f)
        for _ in range(5):
            m = _array_model(rng)
            expected = o_formula(f, env_of_model(m))
            assert eval_formula(f, m) == expected
            assert bool(check(m)) == expected

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_positional_array_predicate_matches_model_check(self, seed):
        rng = random.Random(seed)
        f = random_array_formula(rng, INTS, ARRAYS, FUNS, 3)
        if rng.random() < 0.5:
            f = _full_grammar_formula(rng, 3)
        names = INTS + ARRAYS + FUNS + ["p", "q"]
        order = rng.sample(names, len(names))  # positions follow the given names, not a fixed grouping
        pred = compile_predicate([f], order)
        check = _model_check(f)
        for _ in range(5):
            m = _array_model(rng)
            env = {**m.ints, **m.bools, **m.funcs}
            expected = eval_formula(f, m)
            assert bool(check(m)) == expected
            assert bool(pred(*(env[n] for n in order))) == expected

    def test_conjunction_of_several_formulas(self):
        rng = random.Random(4)
        fs = [random_formula(rng, INTS, 2) for _ in range(4)]
        pred = compile_predicate(fs, INTS)
        for _ in range(200):
            m = _int_model(rng)
            assert bool(pred(*(m.ints[n] for n in INTS))) == all(eval_formula(f, m) for f in fs)
        assert compile_predicate([], INTS)(0, 0, 0) is True

    def test_unassigned_symbol(self):
        f = Atom(Rel.LE, X, IntVar("y"))
        with pytest.raises(UnassignedSymbol):
            record_sample(CoverageBitmap.for_formula(f), f, Model(ints={"x": 1}))
        with pytest.raises(UnassignedSymbol):
            compile_node_values(f, ["x"])
        with pytest.raises(UnassignedSymbol):
            compile_predicate([f], ["x"])

    def test_long_sum_and_empty_operators(self):
        names = [f"v{i}" for i in range(3000)]
        long_sum = Atom(Rel.EQ, Add(tuple(IntVar(n) for n in names)), IntConst(3000))
        empty = Atom(Rel.LT, Add(()), Mul(()))  # 0 < 1
        ones = [1] * len(names)
        assert compile_predicate([long_sum, empty], names)(*ones) is True
        assert compile_predicate([long_sum, Or(())], names)(*ones) is False
        assert compile_predicate([And(())], [])() is True


class TestDeepFormulas:
    def test_depth_300_compiles_through_helpers(self):
        f = deep_and_or(300)
        pred = compile_predicate([f], ["x"])
        check = _model_check(f)
        assert pred.source.count("def ") > 1
        for x in range(-3, 320, 7):
            m = Model(ints={"x": x})
            assert check(m) == pred(x) == eval_formula(f, m)

    def test_depth_300_coverage_matches_interpreter(self):
        f = deep_and_or(300)
        compiled, reference = CoverageBitmap.for_formula(f), CoverageBitmap.for_formula(f)
        for x in (-1, 0, 3, 150, 400):
            record_sample(compiled, f, Model(ints={"x": x}))
            _interpreted_record(reference, f, Model(ints={"x": x}))
        assert compiled == reference


class TestCoverageValues:
    @given(st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_bitmaps_equal_interpreted_recording(self, seed):
        rng = random.Random(seed)
        f = _full_grammar_formula(rng, 3)
        if rng.random() < 0.5:
            f = to_nnf(preprocess(f))
        compiled, reference = CoverageBitmap.for_formula(f), CoverageBitmap.for_formula(f)
        for _ in range(6):
            m = _array_model(rng)
            record_sample(compiled, f, m)
            _interpreted_record(reference, f, m)
        assert compiled.seen_zero == reference.seen_zero
        assert compiled.seen_one == reference.seen_one

    def test_values_are_preorder_node_values(self):
        rng = random.Random(8)
        f = _full_grammar_formula(rng, 4)
        names = _symbols(f)
        values, int_nodes, bool_nodes = compile_node_values(f, names)
        nodes = list(iter_nodes(f))
        m = _array_model(rng)
        ints, bools = values(*_args(m, names))
        assert int_nodes == [i for i, n in enumerate(nodes) if not isinstance(n, FORMULA_TYPES) and sort_of(n) == Sort.INT]
        assert bool_nodes == [i for i, n in enumerate(nodes) if isinstance(n, FORMULA_TYPES)]
        assert list(ints) == [eval_term(nodes[i], m) for i in int_nodes]
        assert list(bools) == [eval_formula(nodes[i], m) for i in bool_nodes]


def _wide_model(rng) -> Model:
    """An array model whose ints reach past 64 bits, of either sign."""
    m = _array_model(rng)
    m.ints = {n: rng.choice([1, 2**63, 2**64, 2**70]) * rng.randint(-3, 3) + rng.randint(-1, 1) for n in INTS}
    return m


def _recorded(f, batches) -> CoverageBitmap:
    bm = CoverageBitmap.for_formula(f)
    for batch in batches:
        assert record_sample(bm, f, *batch) is bm
    return bm


class TestBatchFold:
    """One `record_sample` call over many samples reduces each node's values
    over the batch; it must equal folding them one at a time, in any batches."""

    # Bool, Int and array nodes (widths 1, 64 and 0); x*x and the stored
    # values run past 64 bits
    ALL_SORTS = (
        "(declare-const x Int)(declare-const p Bool)(declare-const a (Array Int Int))"
        "(assert (or p (< (* x x) (select (store a x (- x)) 0))))"
    )

    @given(st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_one_call_equals_one_sample_calls_and_interpreter(self, seed):
        rng = random.Random(seed)
        f = _full_grammar_formula(rng, 3)
        if rng.random() < 0.5:
            f = to_nnf(preprocess(f))
        samples = [_wide_model(rng) for _ in range(rng.randint(1, 12))]
        reference = CoverageBitmap.for_formula(f)
        for m in samples:
            _interpreted_record(reference, f, m)
        assert _recorded(f, [samples]) == _recorded(f, [[m] for m in samples]) == reference

    @given(st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_any_split_into_batches_gives_the_same_bitmap(self, seed):
        rng = random.Random(seed)
        f = _full_grammar_formula(rng, 3)
        samples = [_wide_model(rng) for _ in range(rng.randint(0, 12))]
        cuts = sorted(rng.sample(range(len(samples) + 1), rng.randint(0, len(samples) + 1)))
        batches = [samples[a:b] for a, b in zip([0, *cuts], [*cuts, len(samples)])]
        whole = _recorded(f, [samples])
        assert _recorded(f, batches) == whole
        assert _recorded(f, [samples, *batches]) == whole  # folding again changes nothing

    def test_all_sorts_negative_and_wide_values(self):
        f = parse_problem(self.ALL_SORTS).assertion
        assert {0, 1, 64} <= set(CoverageBitmap.for_formula(f).widths)
        a = FuncValue(-(2**80), {0: 2**65 + 1})
        values = [-(2**70) - 1, -1, 0, 2**64, 2**64 - 1, 3 << 62]
        samples = [Model(ints={"x": x}, bools={"p": x < 0}, funcs={"a": a}) for x in values]
        reference = CoverageBitmap.for_formula(f)
        for m in samples:
            _interpreted_record(reference, f, m)
        assert _recorded(f, [samples]) == _recorded(f, [[m] for m in samples]) == reference
        assert _recorded(f, [samples[:2], samples[2:5], samples[5:]]) == reference
        assert 0 < reference.covered_bits() < reference.total_bits()

    def test_no_samples_is_a_no_op(self):
        f = parse_problem(self.ALL_SORTS).assertion
        empty = CoverageBitmap.for_formula(f)
        assert _recorded(f, [[]]) == empty
        m = Model(ints={"x": -5}, bools={"p": True}, funcs={"a": FuncValue(2, {})})
        assert _recorded(f, [[m], []]) == _recorded(f, [[m]]) != empty

    def test_a_sample_without_a_symbol_changes_nothing(self):
        f = parse_problem(self.ALL_SORTS).assertion
        m = Model(ints={"x": -5}, bools={"p": True}, funcs={"a": FuncValue(2, {})})
        bm = _recorded(f, [[m]])
        before = bm.copy()
        with pytest.raises(UnassignedSymbol):
            good = Model(ints={"x": 7}, bools={"p": False}, funcs={"a": FuncValue(0, {})})
            record_sample(bm, f, good, Model(ints={"x": 1}))
        assert bm == before


class TestGeneratedSource:
    NAME = '|a"); import os; ("|'

    def test_hostile_symbol_name_stays_out_of_the_source(self):
        p = parse_problem(
            f"(declare-const {self.NAME} Int)(declare-const ok Bool)(declare-fun |f)(| (Int) Int)"
            f"(assert (and ok (> {self.NAME} 3) (= (|f)(| {self.NAME}) 0)))"
        )
        name = p.declarations[0].name
        assert "import" in name
        f = p.assertion
        check = compile_predicate([f], [name, "ok", "f)("])
        values, _, _ = compile_node_values(f, [name, "ok", "f)("])
        pred = compile_predicate([Atom(Rel.GT, IntVar(name), IntConst(3))], [name])
        for fn in (check, values, pred):
            assert name not in fn.source and "import" not in fn.source and "f)(" not in fn.source
            assert fn.__globals__["__builtins__"] == {}
        model = Model(ints={name: 5}, bools={"ok": True}, funcs={"f)(": FuncValue(1, {5: 0})})
        assert check(5, True, model.funcs["f)("]) is True and eval_formula(f, model) is True
        assert values(5, True, model.funcs["f)("])[1][0] is True
        model.ints[name] = 2
        assert check(2, True, model.funcs["f)("]) is False and values(2, True, model.funcs["f)("])[1][0] is False
        assert pred(5) is True and pred(2) is False
