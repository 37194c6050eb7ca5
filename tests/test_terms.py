"""Core AST: node contract, evaluation, NNF, preprocessing."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxsampler.errors import UnassignedSymbol, UnsupportedFeature
from boxsampler.smtlib import Declaration, parse_problem, print_formula, print_term
from boxsampler.solver import SolverRequest, SolverVerdict, VerdictKind
from boxsampler.terms import (
    FORMULA_TYPES,
    TERM_TYPES,
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
    children,
    eval_formula,
    eval_term,
    iter_nodes,
    preprocess,
    replace,
    to_nnf,
    _MAX_FORMULA_DEPTH,
    _Node,
)
from oracle import (
    deep_and_or,
    env_of_model,
    fun_app,
    iter_int_models,
    literal_count,
    o_formula,
    random_array_formula,
    random_formula,
)

X, Y = IntVar("x"), IntVar("y")


def lin(c, v):
    return Mul((IntConst(c), v))


class TestEvalTerm:
    def test_intro_example_sum_value(self):
        # x - 5y at x=12, y=2 evaluates to 2
        t = Sub(X, lin(5, Y))
        assert eval_term(t, Model(ints={"x": 12, "y": 2})) == 2

    def test_constant(self):
        assert eval_term(IntConst(0), Model()) == 0

    def test_read_over_write_same_index(self):
        a = ArrayVar("a")
        t = Select(Store(a, IntConst(1), IntConst(7)), IntConst(1))
        assert eval_term(t, Model(funcs={"a": FuncValue(0)})) == 7

    def test_read_over_write_other_index(self):
        a = ArrayVar("a")
        m = Model(funcs={"a": FuncValue(0, {5: 3})})
        t = Select(Store(a, IntConst(1), IntConst(7)), IntConst(5))
        assert eval_term(t, m) == 3

    def test_missing_symbol(self):
        with pytest.raises(UnassignedSymbol):
            eval_term(X, Model())

    def test_store_yields_function_value(self):
        a = ArrayVar("a")
        v = eval_term(Store(a, IntConst(2), IntConst(9)), Model(funcs={"a": FuncValue(1)}))
        assert v.apply(2) == 9 and v.apply(3) == 1


class TestEvalFormula:
    def test_intro_example(self):
        f = And((Atom(Rel.LE, Sub(X, lin(5, Y)), IntConst(7)), Atom(Rel.GE, X, IntConst(0))))
        assert eval_formula(f, Model(ints={"x": 12, "y": 2}))

    def test_x_ne_x_false(self):
        assert not eval_formula(Atom(Rel.NE, X, X), Model(ints={"x": 3}))

    def test_agrees_with_oracle_on_random_formulas(self):
        rng = random.Random(7)
        names = ["x", "y", "z"]
        for _ in range(300):
            f = random_formula(rng, names, 3)
            m = Model(ints={n: rng.randint(-6, 6) for n in names})
            assert eval_formula(f, m) == o_formula(f, env_of_model(m))

    def test_array_equality_is_extensional(self):
        a, b = ArrayVar("a"), ArrayVar("b")
        m = Model(funcs={"a": FuncValue(0, {1: 0}), "b": FuncValue(0)})
        assert eval_formula(Atom(Rel.EQ, a, b), m)
        m2 = Model(funcs={"a": FuncValue(0, {1: 2}), "b": FuncValue(0)})
        assert not eval_formula(Atom(Rel.EQ, a, b), m2)


class TestNNF:
    def test_de_morgan_and(self):
        a = Atom(Rel.LE, X, IntConst(0))
        b = Atom(Rel.GE, Y, IntConst(1))
        out = to_nnf(Not(And((Not(a), b))))
        # not distributes; the negated relational atoms flip their relation
        assert out == Or((a, Atom(Rel.LT, Y, IntConst(1))))

    def test_double_negation(self):
        a = Atom(Rel.EQ, X, Y)
        assert to_nnf(Not(Not(a))) == a

    def test_not_only_over_bool_vars(self):
        f = Not(And((BoolVar("b"), Atom(Rel.LT, X, Y))))
        out = to_nnf(f)
        assert out == Or((Not(BoolVar("b")), Atom(Rel.GE, X, Y)))

    def test_equivalence_exhaustive(self):
        rng = random.Random(11)
        names = ["x", "y"]
        for _ in range(60):
            f = random_formula(rng, names, 3)
            g = to_nnf(f)
            for m in iter_int_models(names, -2, 2):
                assert eval_formula(f, m) == eval_formula(g, m)

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_formula(rng, ["x", "y", "z"], 3)
            g = to_nnf(f)
            assert to_nnf(g) == g

    def test_literal_count_does_not_increase(self):
        rng = random.Random(17)
        for _ in range(100):
            f = random_formula(rng, ["x", "y", "z"], 4)
            assert literal_count(to_nnf(f)) <= literal_count(f)

    @given(st.integers(-4, 4), st.integers(-4, 4))
    def test_negated_atom_flip(self, xv, yv):
        m = Model(ints={"x": xv, "y": yv})
        for rel in Rel:
            f = Not(Atom(rel, X, Y))
            assert eval_formula(to_nnf(f), m) == eval_formula(f, m)


class TestPreprocess:
    def test_distinct_expands_pairwise(self):
        z = IntVar("z")
        f = parse_problem("(declare-const x Int)(declare-const y Int)(declare-const z Int)(assert (distinct x y z))").assertion
        assert f == And(
            (Atom(Rel.NE, X, Y), Atom(Rel.NE, X, z), Atom(Rel.NE, Y, z))
        )

    def test_ite_in_atom_case_splits(self):
        b = BoolVar("b")
        f = Atom(Rel.LE, Ite(b, IntConst(1), IntConst(2)), X)
        out = preprocess(f)
        expected = Or(
            (
                And((b, Atom(Rel.LE, IntConst(1), X))),
                And((Not(b), Atom(Rel.LE, IntConst(2), X))),
            )
        )
        assert out == expected

    def test_div_is_rejected_at_parse(self):
        with pytest.raises(UnsupportedFeature):
            parse_problem("(declare-const x Int)(assert (= (div x 2) 1))")

    def test_preprocess_preserves_semantics(self):
        rng = random.Random(23)
        names = ["x", "y"]
        b = BoolVar("b")
        for _ in range(80):
            inner = random_formula(rng, names, 2)
            f = Or(
                (
                    Atom(Rel.LE, Ite(inner, X, Y), IntConst(rng.randint(-3, 3))),
                    And((b, Atom(Rel.NE, X, Y))),
                )
            )
            g = preprocess(f)
            for m in iter_int_models(names, -2, 2):
                m.bools["b"] = bool(rng.getrandbits(1))
                assert eval_formula(f, m) == eval_formula(g, m)

    def test_nested_ite(self):
        b, c = BoolVar("b"), BoolVar("c")
        f = Atom(Rel.EQ, Ite(b, Ite(c, IntConst(1), IntConst(2)), IntConst(3)), X)
        g = preprocess(f)
        for bv in (False, True):
            for cv in (False, True):
                for xv in range(0, 5):
                    m = Model(ints={"x": xv}, bools={"b": bv, "c": cv})
                    assert eval_formula(f, m) == eval_formula(g, m)

    def test_ite_shared_with_another_ites_condition(self):
        low = Ite(Atom(Rel.LT, X, Y), X, Y)
        sign = Ite(Atom(Rel.GE, low, IntConst(0)), IntConst(1), IntConst(-1))
        f = Or((Atom(Rel.LE, Add((low, sign)), IntConst(1)), Atom(Rel.EQ, Mul((IntConst(2), sign)), low)))
        g = preprocess(f)
        assert not any(isinstance(n, Ite) for n in iter_nodes(g))
        for m in iter_int_models(["x", "y"], -3, 3):
            assert eval_formula(f, m) == eval_formula(g, m)

    def test_a_formula_as_deep_as_the_bound_is_taken(self):
        f = deep_and_or(_MAX_FORMULA_DEPTH - 1)  # the atom at the bottom is a level
        assert type(preprocess(f)) is type(f)  # not compared whole: == recurses three frames a level

    def test_a_formula_one_level_deeper_is_unsupported(self):
        with pytest.raises(UnsupportedFeature, match="^expression nests too deeply$"):
            preprocess(deep_and_or(_MAX_FORMULA_DEPTH))

    def test_lifting_that_nests_too_deep_is_unsupported(self):
        # 200 nested ites fit in an atom, but lifted they nest twice as deep
        term = X
        for k in range(200):
            term = Ite(Atom(Rel.GT, X, IntConst(k)), IntConst(k), term)
        with pytest.raises(UnsupportedFeature, match="^expression nests too deeply$"):
            preprocess(Atom(Rel.GT, term, IntConst(0)))

    def test_a_shared_operand_is_measured_once(self):
        # Bool = 150 deep, lowered with both operands shared, nests 450 deep:
        # about 2**150 leaves as a tree, but a few hundred nodes
        f = parse_problem("(declare-const p Bool)(assert " + "(= p " * 150 + "p" + ")" * 150 + ")").assertion
        with pytest.raises(UnsupportedFeature, match="^expression nests too deeply$"):
            preprocess(f)


P, Q = BoolVar("p"), BoolVar("q")
A = ArrayVar("a")

# Each node type: its fields, in order, with example values, and its repr.
NODE_CASES = {
    IntConst: ({"value": 3}, "IntConst(value=3)"),
    IntVar: ({"name": "x"}, "IntVar(name='x')"),
    Add: ({"args": (X, Y)}, "Add(args=(IntVar(name='x'), IntVar(name='y')))"),
    Sub: ({"lhs": X, "rhs": Y}, "Sub(lhs=IntVar(name='x'), rhs=IntVar(name='y'))"),
    Mul: ({"args": (IntConst(2), X)}, "Mul(args=(IntConst(value=2), IntVar(name='x')))"),
    Ite: (
        {"cond": P, "then": X, "orelse": Y},
        "Ite(cond=BoolVar(name='p'), then=IntVar(name='x'), orelse=IntVar(name='y'))",
    ),
    Select: ({"array": A, "index": X}, "Select(array=ArrayVar(name='a', function=False), index=IntVar(name='x'))"),
    Store: (
        {"array": A, "index": X, "value": Y},
        "Store(array=ArrayVar(name='a', function=False), index=IntVar(name='x'), value=IntVar(name='y'))",
    ),
    ArrayVar: ({"name": "f", "function": True}, "ArrayVar(name='f', function=True)"),
    Atom: (
        {"rel": Rel.LE, "lhs": X, "rhs": IntConst(0)},
        "Atom(rel=<Rel.LE: '<='>, lhs=IntVar(name='x'), rhs=IntConst(value=0))",
    ),
    Not: ({"arg": P}, "Not(arg=BoolVar(name='p'))"),
    And: ({"args": (P, Q)}, "And(args=(BoolVar(name='p'), BoolVar(name='q')))"),
    Or: ({"args": (P, Q)}, "Or(args=(BoolVar(name='p'), BoolVar(name='q')))"),
    BoolVar: ({"name": "p"}, "BoolVar(name='p')"),
    BoolConst: ({"value": True}, "BoolConst(value=True)"),
}


@pytest.mark.parametrize("kind", TERM_TYPES + FORMULA_TYPES, ids=lambda k: k.__name__)
def test_node_contract(kind):
    """What every node guarantees: structural equality and a hash equal to
    that of its tuple of fields, immutability, positional and keyword
    construction, copies, and the repr (test_arrays hashes reprs into a
    pinned digest)."""
    fields, text = NODE_CASES[kind]
    values = tuple(fields.values())
    node, twin = kind(*values), kind(**fields)
    assert node == twin and not node != twin and node is not twin
    assert hash(node) == hash(twin) == hash(values)
    assert tuple(getattr(node, name) for name in fields) == values
    assert repr(node) == text
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, values[0])
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert copy.copy(node) == node == copy.deepcopy(node) == pickle.loads(pickle.dumps(node))
    assert node != values and node != IntVar("z")
    if "args" in fields:  # a variadic node flattens a direct child of its own type
        a, b, c = (*values[0], values[0][0])
        assert kind((kind((a, b)), c)).args == (a, b, c)


def test_node_cases_cover_every_node_type():
    """A node type added to `terms` gets a case above, and so a run of
    test_node_contract: the concrete subclasses of _Node are found by
    walking __subclasses__(), the bases (named with "_") left out."""
    found, stack = set(), [_Node]
    while stack:
        kind = stack.pop()
        stack += kind.__subclasses__()
        if not kind.__name__.startswith("_"):
            found.add(kind)
    assert set(NODE_CASES) == found == set(TERM_TYPES + FORMULA_TYPES)


def test_variadic_nodes_flatten_only_their_own_type():
    for outer, inner, (a, b) in ((Add, Mul, (X, Y)), (Mul, Add, (X, Y)), (And, Or, (P, Q)), (Or, And, (P, Q))):
        nested = inner((a, b))
        assert outer((nested, a)).args == (nested, a)
        assert outer((a, outer((nested, b)))).args == (a, nested, b)


def test_nodes_of_different_types_with_equal_fields_are_unequal():
    for left, right in (
        (Sub(X, Y), Select(X, Y)),
        (IntVar("a"), BoolVar("a")),
        (IntConst(1), BoolConst(True)),
        (Add((X, Y)), Mul((X, Y))),
        (And((P, Q)), Or((P, Q))),
    ):
        assert left != right and not left == right
    assert ArrayVar("f") == ArrayVar("f", False) != ArrayVar("f", function=True)


def test_value_objects_compare_by_fields_and_are_unhashable():
    cases = [
        (Model({"x": 1}), Model(ints={"x": 1}, bools={}), "Model(ints={'x': 1}, bools={}, funcs={})"),
        (
            Declaration("f", Sort.ARRAY, is_function=True),
            Declaration("f", Sort.ARRAY, True),
            "Declaration(name='f', sort=<Sort.ARRAY: 'Array'>, is_function=True)",
        ),
        (
            SolverRequest([], [P]),
            SolverRequest([], [P], [], None),
            "SolverRequest(declarations=[], hard=[BoolVar(name='p')], soft=[], deadline=None)",
        ),
        (
            SolverVerdict(VerdictKind.UNKNOWN),
            SolverVerdict(VerdictKind.UNKNOWN, None, "", False),
            "SolverVerdict(kind=<VerdictKind.UNKNOWN: 'unknown'>, model=None, reason='', degraded=False)",
        ),
    ]
    for value, twin, text in cases:
        assert value == twin and repr(value) == text
        assert value != Model({"x": 2}) and value != (value,)
        with pytest.raises(TypeError):
            hash(value)
    request = SolverRequest([], [])
    request.soft.append((P, 1))
    assert SolverRequest([], []).soft == []  # each request its own default list


@given(
    st.integers(-3, 3),
    st.dictionaries(st.integers(-5, 5), st.integers(-3, 3), max_size=6),
    st.randoms(use_true_random=False),
)
def test_function_values_compare_and_hash_by_value(default, cells, rnd):
    # the same cells in a shuffled insertion order, with and without the
    # entries that equal the default
    plain = {k: v for k, v in cells.items() if v != default}
    items = list(cells.items())
    rnd.shuffle(items)
    value, twin = FuncValue(default, plain), FuncValue(default, dict(items))
    assert value == twin and hash(value) == hash(twin) and len({value, twin}) == 1
    assert repr(FuncValue(1, {2: 3, 4: 1})) == "FuncValue(default=1, exceptions={2: 3})"
    assert value != Model({"x": 2}) and value != (value,)


class TestConstruction:
    def test_nested_conjunction_flattens(self):
        a = Atom(Rel.LE, X, IntConst(0))
        b = Atom(Rel.GE, Y, IntConst(0))
        c = Atom(Rel.EQ, X, Y)
        assert And((And((a, b)), c)).args == (a, b, c)

    def test_nested_sums_flatten(self):
        t = Add((Add((X, Y)), IntConst(1)))
        assert t.args == (X, Y, IntConst(1))

    def test_func_value_canonical(self):
        assert FuncValue(0, {3: 0}) == FuncValue(0)
        assert FuncValue(1, {3: 0}).exceptions == {3: 0}


def _every_node_type_formulas() -> list:
    """Seeded formulas that hold every term and formula type, with the
    trees the parser builds for =>, = over Bools, xor and distinct."""
    rng = random.Random(7)
    x, y, a, b = X, Y, ArrayVar("a"), ArrayVar("b")
    p, q = BoolVar("p"), BoolVar("q")
    out = []
    for _ in range(40):
        f = random_array_formula(rng, ["x", "y"], ["a", "b"], ["f"], 3)
        g = random_array_formula(rng, ["x", "y"], ["a", "b"], ["f"], 1)
        ite = Ite(Or((p, g)), Sub(x, y), Select(Store(a, x, IntConst(rng.randint(-3, 3))), y))
        eq, c = Atom(Rel.EQ, Store(a, ite, y), b), BoolConst(rng.random() < 0.5)
        distinct = [x, ite, fun_app("f", Mul((IntConst(2), ite)))]
        ne = And(tuple(Atom(Rel.NE, distinct[i], distinct[j]) for i, j in ((0, 1), (0, 2), (1, 2))))
        out.append(
            And(
                (
                    Or((Not(p), f)),
                    Or((And((Not(q), eq)), And((Not(Not(q)), Not(eq))))),
                    Or((And((c, Not(ne))), And((Not(c), ne)))),
                )
            )
        )
    return out


class TestNodeStructure:
    def test_children_in_preorder(self):
        cond = Atom(Rel.LT, X, Y)
        assert children(Ite(cond, X, Y)) == (cond, X, Y)
        assert children(Atom(Rel.LE, X, IntConst(1))) == (X, IntConst(1))
        assert children(Store(ArrayVar("a"), X, Y)) == (ArrayVar("a"), X, Y)
        assert children(fun_app("f", X)) == (ArrayVar("f", function=True), X)
        assert children(Add((X, Y, X))) == (X, Y, X)

    def test_leaves_have_no_children_and_other_values_raise(self):
        for leaf in (IntConst(1), X, ArrayVar("a"), BoolVar("b"), BoolConst(True)):
            assert children(leaf) == ()
            assert list(iter_nodes(leaf)) == [leaf]
        for value in (3, "x", None, (X, Y)):
            with pytest.raises(TypeError):
                children(value)
            with pytest.raises(TypeError):
                list(iter_nodes(value))

    def test_node_order_matches_pinned_digest(self):
        """Coverage bitmaps number nodes in this order, so it is a file
        format.  The digest was re-pinned when a function application
        became a select over the function's symbol: the application gained
        one node, the 0-width symbol before its argument, so bitmaps of
        formulas with functions are numbered anew; all other nodes keep
        their order, and formulas without functions their bitmaps."""
        digest = hashlib.sha256()
        kinds = set()
        for f in _every_node_type_formulas():
            for node in iter_nodes(f):
                text = print_term(node) if isinstance(node, TERM_TYPES) else print_formula(node)
                digest.update(f"{type(node).__name__} {text}\n".encode())
                kinds.add(type(node))
        assert kinds == set(TERM_TYPES + FORMULA_TYPES)
        assert digest.hexdigest() == "8ba58876e6b00b75026d42567742a31039c31dad36beadf727c21d0af00f601c"

    def test_replace_reaches_ite_conditions_and_rebuilds(self):
        z, b = IntVar("z"), BoolVar("b")

        def build(v):
            cond = And((Atom(Rel.EQ, v, Y), Not(b)))
            read = Select(Store(ArrayVar("a"), v, Y), v)
            return Or(
                (
                    Atom(Rel.LT, fun_app("h", Add((v, IntConst(1)))), Ite(cond, Mul((IntConst(2), v)), Sub(v, Y))),
                    And((Atom(Rel.NE, v, Y), Atom(Rel.NE, v, read), Atom(Rel.NE, Y, read))),
                    Or((Not(b), Atom(Rel.GE, v, IntConst(0)))),
                )
            )

        assert replace(build(X), X, z) == build(z)
        assert replace(build(X), IntVar("w"), z) == build(X)

    def test_replace_flattens_rebuilt_sums(self):
        assert replace(Add((X, IntConst(1))), X, Add((Y, Y))) == Add((Y, Y, IntConst(1)))
        assert replace(Atom(Rel.NE, X, IntConst(0)), X, Y) == Atom(Rel.NE, Y, IntConst(0))
