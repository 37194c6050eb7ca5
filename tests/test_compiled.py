"""Compiled evaluator: agreement with eval_formula and the oracle, coverage
values, hoisting of deep formulas, and the generated-source invariant."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler.compiled import _PRIMARY, _UNARY, _Codegen, compile_node_values, compile_predicate
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
    Sub,
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
    node values compiled over the symbols of `f` (the root is node 0), or
    from their constants when the root is one."""
    names = _symbols(f)
    values, nodes, constants = compile_node_values(f, names)
    if constants and constants[0][0] == 0:
        return lambda m: constants[0][1]
    assert nodes[0] == 0
    return lambda m: values(*_args(m, names))[0]


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
        packed = compile_predicate([f], order, packed=True)  # the values as one tuple
        check = _model_check(f)
        for _ in range(5):
            m = _array_model(rng)
            env = {**m.ints, **m.bools, **m.funcs}
            expected = eval_formula(f, m)
            assert bool(check(m)) == expected
            assert bool(pred(*(env[n] for n in order))) == bool(packed(tuple(env[n] for n in order))) == expected

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
        assert compile_predicate([long_sum, empty], names, packed=True)(tuple(ones)) is True
        assert compile_predicate([And(())], [], packed=True)(()) is True


class TestDeepFormulas:
    def test_depth_300_compiles_through_helpers(self):
        f = deep_and_or(300)
        pred = compile_predicate([f], ["x"])
        packed = compile_predicate([f], ["x"], packed=True)
        check = _model_check(f)
        assert pred.source.count("def ") > 1
        for x in range(-3, 320, 7):
            m = Model(ints={"x": x})
            assert check(m) == pred(x) == packed((x,)) == eval_formula(f, m)

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
        values, valued, constants = compile_node_values(f, names)
        nodes = list(iter_nodes(f))
        m = _array_model(rng)
        leaves = (IntConst, BoolConst)
        assert constants == [(i, n.value) for i, n in enumerate(nodes) if isinstance(n, leaves)]
        assert valued == [
            i
            for i, n in enumerate(nodes)
            if not isinstance(n, leaves) and (isinstance(n, FORMULA_TYPES) or sort_of(n) == Sort.INT)
        ]
        expected = [(eval_formula if isinstance(nodes[i], FORMULA_TYPES) else eval_term)(nodes[i], m) for i in valued]
        assert list(values(*_args(m, names))) == expected


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

    @given(st.lists(st.tuples(st.integers(-(2**70), 2**70), st.booleans()), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_a_batch_folds_as_its_samples_one_by_one(self, points):
        # Bool, negative and wide Int columns; a one-point list is a one-sample batch
        f = parse_problem(self.ALL_SORTS).assertion
        a = FuncValue(-3, {0: 2**66, 5: -7})
        samples = [Model(ints={"x": x}, bools={"p": p}, funcs={"a": a}) for x, p in points]
        assert _recorded(f, [samples]) == _recorded(f, [[m] for m in samples])

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


class TestSelect:
    """A select of a name (a symbol, a bound constant or a node's variable)
    reads the array's cells inline; a select of any other array expression
    calls ``FuncValue.apply``."""

    def test_a_symbol_is_read_inline_and_a_store_through_apply(self):
        a, i = ArrayVar("a"), IntVar("i")
        f = Atom(Rel.EQ, Select(a, i), Select(Store(a, i, IntConst(1)), IntConst(0)))
        pred = compile_predicate([f], ["a", "i"])
        assert "v0.exceptions.get(v1, v0.default)" in pred.source
        assert "_apply(_store(v0, v1, 1), 0)" in pred.source
        values, _, _ = compile_node_values(f, ["a", "i"])
        assert "_apply" not in values.source  # there each array node is a variable of its own
        for cells, at in (({}, 0), ({0: 1}, 0), ({0: 1}, 5), ({5: 2, 0: 3}, 5)):
            m = Model(ints={"i": at}, funcs={"a": FuncValue(1, cells)})
            assert pred(m.funcs["a"], at) == eval_formula(f, m)

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_selects_of_symbols_stores_and_hoisted_arrays_equal_eval_term(self, seed):
        rng = random.Random(seed)
        a, g = ArrayVar("a"), ArrayVar("g", function=True)
        deep = a  # a store chain deep enough to be hoisted into a helper
        for _ in range(rng.randint(0, 60)):
            deep = Store(deep, IntVar(rng.choice(INTS)), IntConst(rng.randint(-3, 3)))
        terms = [
            Select(a, X),
            Select(g, Select(a, IntVar("y"))),
            Select(Store(a, X, IntConst(3)), IntVar("z")),
            Select(deep, X),
            Select(g, Add((Select(deep, IntVar("y")), IntConst(1)))),
        ]
        names = INTS + ["a", "g"]
        f = And(tuple(Atom(Rel.LE, t, t) for t in terms))
        values, valued, _ = compile_node_values(f, names)
        nodes = list(iter_nodes(f))
        for _ in range(5):
            m = Model(ints={n: rng.randint(-3, 3) for n in INTS})
            for n in ("a", "g"):
                cells = {k: rng.randint(-4, 4) for k in range(-3, 4) if rng.random() < 0.5}
                m.funcs[n] = FuncValue(rng.randint(-2, 2), cells)
            evaluate = [eval_formula if isinstance(nodes[i], FORMULA_TYPES) else eval_term for i in valued]
            expected = [f(nodes[i], m) for f, i in zip(evaluate, valued)]
            assert list(values(*_args(m, names))) == expected
            for t in terms:
                pred = compile_predicate([Atom(Rel.EQ, t, IntConst(eval_term(t, m)))], names)
                assert pred(*_args(m, names)) is True


P, Q, R, A = BoolVar("p"), BoolVar("q"), BoolVar("r"), ArrayVar("a")
Y, Z = IntVar("y"), IntVar("z")
SHAPE_NAMES = INTS + ["p", "q", "r", "a"]  # v0 .. v6


def _text(node) -> str:
    return _Codegen(SHAPE_NAMES).expression(node)[0]


def _shaped_term(rng, depth: int):
    """Int terms whose operators nest in every order: differences on either
    side of a `-`, sums under products, negative constants and ites as
    operands, selects at ite indices."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice([X, Y, Z, IntConst(rng.randint(-4, 4))])
    kids = [_shaped_term(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if roll < 0.4:
        return Sub(kids[0], kids[1])
    if roll < 0.55:
        return Add(tuple(kids))
    if roll < 0.7:
        return Mul(tuple(kids))
    if roll < 0.85:
        return Ite(_shaped_formula(rng, depth - 1), kids[0], kids[1])
    return Select(A, kids[0])


def _shaped_formula(rng, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if roll < 0.05:
            return rng.choice([P, Q, R, BoolConst(rng.random() < 0.5)])
        return Atom(rng.choice(list(Rel)), _shaped_term(rng, depth - 1), _shaped_term(rng, depth - 1))
    kids = tuple(_shaped_formula(rng, depth - 1) for _ in range(2))
    return Not(rng.choice([And, Or])(kids)) if roll < 0.5 else rng.choice([And, Or])(kids)


class TestPrecedence:
    """Generated text carries only the parentheses that Python needs, but
    around the right operand of a `-` that is a sum or a difference, a
    difference in a sum, an ite and the groups of a long chain; values stay
    those of the interpreter."""

    SHAPES = [
        (Sub(X, Sub(Y, Z)), "v0 - (v1 - v2)"),
        (Sub(X, Add((Y, Z))), "v0 - (v1 + v2)"),
        (Sub(Sub(X, Y), Z), "v0 - v1 - v2"),
        (Sub(X, Mul((Y, Z))), "v0 - v1 * v2"),
        (Mul((Add((X, Y)), Z)), "(v0 + v1) * v2"),
        (Mul((Sub(X, Y), IntConst(-3))), "(v0 - v1) * -3"),
        (Add((Mul((X, Y)), Sub(Z, X))), "v0 * v1 + (v2 - v0)"),
        (Add((Sub(X, Y), Sub(Y, Z))), "(v0 - v1) + (v1 - v2)"),
        (Sub(Add((X, Y)), Z), "v0 + v1 - v2"),
        (Mul((IntConst(-3), X)), "-3 * v0"),
        (Sub(X, IntConst(-3)), "v0 - -3"),
        (Atom(Rel.LT, X, IntConst(-3)), "v0 < -3"),
        (Atom(Rel.EQ, Add((X, Y)), Mul((Y, Z))), "v0 + v1 == v1 * v2"),
        (Not(And((P, Q))), "not (v3 and v4)"),
        (Not(Atom(Rel.LE, X, Y)), "not v0 <= v1"),
        (Not(Not(P)), "not not v3"),
        (And((P, Or((Q, R)))), "v3 and (v4 or v5)"),
        (Or((P, And((Q, R)), Not(Q))), "v3 or v4 and v5 or not v4"),
        (Add((Ite(P, X, Y), Z)), "(v0 if v3 else v1) + v2"),
        (Sub(Z, Ite(Or((P, Q)), X, IntConst(-1))), "v2 - (v0 if v3 or v4 else -1)"),
        (Select(A, Ite(P, X, Y)), "v6.exceptions.get((v0 if v3 else v1), v6.default)"),
        (Select(Store(A, X, Sub(Y, Z)), Add((X, Y))), "_apply(_store(v6, v0, v1 - v2), v0 + v1)"),
    ]

    @pytest.mark.parametrize("node, text", SHAPES, ids=[text for _, text in SHAPES])
    def test_each_shape_has_its_text_and_the_interpreters_value(self, node, text):
        assert _text(node) == text
        rng = random.Random(text)
        formula = isinstance(node, FORMULA_TYPES)
        probe = node if formula else Atom(Rel.EQ, node, node)
        values, nodes, _ = compile_node_values(probe, SHAPE_NAMES)
        for _ in range(30):
            m = _shape_model(rng)
            expected = (eval_formula if formula else eval_term)(node, m)
            got = eval(text, {"_apply": FuncValue.apply, "_store": FuncValue.with_store}, _shape_env(m))
            assert got == expected
            assert values(*_args(m, SHAPE_NAMES))[nodes.index(0 if formula else 1)] == expected

    def test_a_negative_constant_binds_as_a_unary_minus(self):
        gen = _Codegen([])
        assert gen.expression(IntConst(-3)) == ("-3", 0, _UNARY)
        assert gen.expression(IntConst(3)) == ("3", 0, _PRIMARY)
        assert gen.expression(BoolConst(False)) == ("False", 0, _PRIMARY)

    def test_long_sums_keep_their_groups_and_deep_differences_are_hoisted(self):
        names = [f"w{i}" for i in range(40)]
        long_sum = Add(tuple(IntVar(n) for n in names))
        text = _Codegen(names).expression(long_sum)[0]
        assert text == " + ".join("(" + " + ".join(f"v{i}" for i in range(k, min(k + 16, 40))) + ")" for k in (0, 16, 32))
        deep = X
        for i in range(120):  # x - (y - (z - (x - ...))), each difference on the right of the next
            deep = Sub([X, Y, Z][i % 3], deep)
        f = And((Atom(Rel.EQ, deep, IntVar("w")), Atom(Rel.GE, Mul((IntConst(-2), long_sum)), IntConst(-50))))
        pred = compile_predicate([f], [*INTS, "w", *names])
        assert pred.source.count("def ") > 1
        rng = random.Random(5)
        for _ in range(20):
            m = Model(ints={n: rng.randint(-3, 3) for n in [*INTS, "w", *names]})
            m.ints["w"] = eval_term(deep, m) + rng.randint(0, 1)
            assert pred(*(m.ints[n] for n in [*INTS, "w", *names])) == eval_formula(f, m)

    JOINS = {
        "differences in sums": lambda a, b: Sub(Add((a, b)), X),
        "sums": lambda a, b: Add((a, b)),
        "products": lambda a, b: Mul((a, b)),
    }

    @pytest.mark.parametrize("join", JOINS.values(), ids=JOINS.keys())
    def test_a_balanced_tree_of_4096_leaves_compiles(self, join):
        # (- (+ (- (+ a b) x) (- (+ c d) x)) x) twelve levels deep: written as
        # one chain, its 8,000 operators would be more than CPython compiles
        level = [[X, Y, Z, IntConst(-2)][i % 4] for i in range(4096)]
        while len(level) > 1:
            level = [join(a, b) for a, b in zip(level[::2], level[1::2])]
        tree, names = level[0], [*INTS, "w"]
        f = Atom(Rel.EQ, tree, IntVar("w"))
        pred = compile_predicate([f], names)
        values, nodes, _ = compile_node_values(f, names)
        rng = random.Random(4096)
        for _ in range(5):
            m = Model(ints={n: rng.choice([-1, 1, 2]) for n in INTS})
            m.ints["w"] = eval_term(tree, m)
            assert pred(*_args(m, names)) is True
            assert values(*_args(m, names))[nodes.index(1)] == m.ints["w"]

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_predicates_and_node_values_equal_the_interpreter(self, seed):
        rng = random.Random(seed)
        f = _shaped_formula(rng, 4)
        pred = compile_predicate([f], SHAPE_NAMES)
        values, valued, constants = compile_node_values(f, SHAPE_NAMES)
        nodes = list(iter_nodes(f))
        for _ in range(5):
            m = _shape_model(rng)
            assert pred(*_args(m, SHAPE_NAMES)) == eval_formula(f, m)
            evaluate = [eval_formula if isinstance(nodes[i], FORMULA_TYPES) else eval_term for i in valued]
            assert list(values(*_args(m, SHAPE_NAMES))) == [e(nodes[i], m) for e, i in zip(evaluate, valued)]
        assert constants == [(i, n.value) for i, n in enumerate(nodes) if isinstance(n, (IntConst, BoolConst))]


def _shape_model(rng) -> Model:
    return Model(
        ints={n: rng.randint(-5, 5) for n in INTS},
        bools={n: rng.random() < 0.5 for n in ("p", "q", "r")},
        funcs={"a": FuncValue(rng.randint(-2, 2), {k: rng.randint(-3, 3) for k in range(-4, 5) if rng.random() < 0.4})},
    )


def _shape_env(m: Model) -> dict:
    return {f"v{i}": value for i, value in enumerate(_args(m, SHAPE_NAMES))}


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
        assert values(5, True, model.funcs["f)("])[0] is True
        model.ints[name] = 2
        assert check(2, True, model.funcs["f)("]) is False and values(2, True, model.funcs["f)("])[0] is False
        assert pred(5) is True and pred(2) is False
