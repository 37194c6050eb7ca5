"""SMT-LIB reader/writer: examples, round trips, fuzz robustness."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler.errors import SmtSyntaxError, UnsupportedFeature
from boxsampler.smtlib import (
    _TOKEN,
    StreamReader,
    parse_problem,
    print_declaration,
    print_formula,
    print_term,
    read_sexpr,
    read_sexprs,
)
from boxsampler.terms import (
    Add,
    And,
    ArrayVar,
    Atom,
    BoolConst,
    BoolVar,
    IntConst,
    IntVar,
    Ite,
    Mul,
    Not,
    Or,
    Rel,
    Select,
    Sort,
    Store,
    Sub,
    preprocess,
    to_nnf,
)
from oracle import (
    fun_app,
    o_formula,
    o_sexpr,
    print_problem,
    random_array_formula,
    random_array_term,
    random_formula,
    random_nnf_formula,
)


def _iff(a, b):
    return Or((And((a, b)), And((Not(a), Not(b)))))


class TestParse:
    def test_simple_declaration_and_atom(self):
        p = parse_problem("(declare-const x Int)(assert (>= x 0))")
        assert len(p.declarations) == 1
        assert p.assertion == Atom(Rel.GE, IntVar("x"), IntConst(0))

    def test_array_select_atom(self):
        p = parse_problem(
            "(declare-const a (Array Int Int))(declare-const i Int)"
            "(assert (= (select a i) 3))"
        )
        assert p.assertion == Atom(Rel.EQ, Select(ArrayVar("a"), IntVar("i")), IntConst(3))

    def test_multiple_asserts_conjoined(self):
        p = parse_problem(
            "(declare-const x Int)(assert (>= x 0))(assert (<= x 9))"
        )
        assert isinstance(p.assertion, And) and len(p.assertion.args) == 2

    def test_negative_literal_forms(self):
        p1 = parse_problem("(declare-const x Int)(assert (= x (- 5)))")
        p2 = parse_problem("(declare-const x Int)(assert (= x -5))")
        assert p1.assertion == p2.assertion == Atom(Rel.EQ, IntVar("x"), IntConst(-5))

    def test_let_inlined(self):
        p = parse_problem(
            "(declare-const x Int)(assert (let ((t (+ x 1))) (>= t 0)))"
        )
        assert p.assertion == Atom(Rel.GE, Add((IntVar("x"), IntConst(1))), IntConst(0))

    def test_let_parallel_scoping(self):
        # values of parallel bindings see the outer scope
        p = parse_problem(
            "(declare-const x Int)"
            "(assert (let ((x (+ x 1)) (y x)) (= x y)))"
        )
        lhs = Add((IntVar("x"), IntConst(1)))
        assert p.assertion == Atom(Rel.EQ, lhs, IntVar("x"))

    def test_comments_and_named_stripped(self):
        p = parse_problem(
            "; a comment\n(declare-const x Int)\n"
            "(assert (! (>= x 0) :named a0)) ; trailing\n"
        )
        assert p.assertion == Atom(Rel.GE, IntVar("x"), IntConst(0))

    def test_declare_fun_unary(self):
        p = parse_problem("(declare-fun f (Int) Int)(assert (>= (f 0) 1))")
        decl = p.declarations[0]
        assert decl.is_function and decl.sort == Sort.ARRAY
        assert p.assertion == Atom(Rel.GE, Select(ArrayVar("f", function=True), IntConst(0)), IntConst(1))
        assert print_formula(p.assertion) == "(>= (f 0) 1)"
        assert print_declaration(decl) == "(declare-fun f (Int) Int)"

    def test_zero_param_define_fun_inlined(self):
        p = parse_problem(
            "(declare-const x Int)(define-fun two () Int 2)(assert (>= x two))"
        )
        assert p.assertion == Atom(Rel.GE, IntVar("x"), IntConst(2))

    def test_logic_whitelist(self):
        parse_problem("(set-logic QF_NIA)")
        with pytest.raises(UnsupportedFeature):
            parse_problem("(set-logic QF_BV)")

    def test_unary_function_arity_enforced(self):
        with pytest.raises(UnsupportedFeature):
            parse_problem("(declare-fun f (Int Int) Int)")

    def test_undeclared_symbol(self):
        with pytest.raises(SmtSyntaxError):
            parse_problem("(assert (>= x 0))")

    def test_push_pop_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_problem("(push 1)")

    def test_syntax_error_has_position(self):
        with pytest.raises(SmtSyntaxError) as info:
            parse_problem("(declare-const x Int)\n(assert (>= x 0)")
        assert info.value.line >= 1

    def test_bool_ops(self):
        p = parse_problem(
            "(declare-const p Bool)(declare-const q Bool)(declare-const x Int)"
            "(assert (=> p (or q (xor p q) (= p q) (not p))))"
        )
        assert p.assertion is not None

    def test_ite_and_distinct(self):
        p = parse_problem(
            "(declare-const x Int)(declare-const y Int)(declare-const b Bool)"
            "(assert (distinct x y 3))(assert (<= (ite b x y) 4))"
        )
        assert p.assertion is not None


class TestErrorPositions:
    """Errors name the line (from 1) and column (from 0) where the
    offending token starts."""

    @pytest.mark.parametrize("text, message, line, col", [
        ("(declare-const x Int)\n(assert (>= x 0)", "unbalanced '('", 2, 0),
        ("(declare-const x Int)\n  (assert (>= x 0)))", "unbalanced ')'", 2, 19),
        ('(declare-const x Int)\n(echo "oops)', "unterminated string literal", 2, 6),
        ("(declare-const x Int)\n(assert (> |x 0))", "unterminated quoted symbol", 2, 11),
        ("(declare-const x Int)\n(assert (> x 0))\n(assert (< y 5))", "undeclared symbol 'y'", 3, 11),
        ("(declare-const x Int)\n\t(assert (+ x 1))", "assert expects a Bool expression", 2, 1),
        # numerals are ASCII digits: others that `str.isdigit` takes are symbols
        ("(declare-const x Int)\n(assert (= x ²))", "undeclared symbol '²'", 2, 13),
        ("(declare-const x Int)\n(assert (= x ٣))", "undeclared symbol '٣'", 2, 13),
    ])
    def test_position_of_the_offending_token(self, text, message, line, col):
        with pytest.raises(SmtSyntaxError) as info:
            parse_problem(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value) == f"{line}:{col}: {message}"

    @pytest.mark.parametrize("before", ["(declare-const |a\nb| Int)", '(echo "a\nb")'])
    def test_lines_count_newlines_inside_symbols_and_strings(self, before):
        with pytest.raises(SmtSyntaxError) as info:
            parse_problem(before + "\n(assert (> zz 0))")
        assert str(info.value) == "3:11: undeclared symbol 'zz'"


class TestPinnedErrors:
    """One malformed application per head, each with a single error, and
    the message and position the parser gives it.  A sort or arity error is
    placed at the application, not at the operand."""

    DECLS = (
        "(declare-const x Int)(declare-const y Int)(declare-const p Bool)(declare-const q Bool)"
        "(declare-const a (Array Int Int))(declare-const b (Array Int Int))(declare-fun f (Int) Int)\n"
    )

    @pytest.mark.parametrize("expr, message", [
        # arity, exact
        ("(not p q)", "2:10: not expects 1 arguments"),
        ("(xor p)", "2:10: xor expects 2 arguments"),
        ("(ite p 1)", "2:10: ite expects 3 arguments"),
        ("(select a)", "2:10: select expects 2 arguments"),
        ("(store a 1)", "2:10: store expects 3 arguments"),
        ("(f 1 2)", "2:10: f expects 1 arguments"),
        ("(|f| 1 2)", "2:10: |f| expects 1 arguments"),
        ("(f)", "2:10: f expects 1 arguments"),
        # arity, at least
        ("(+ x)", "2:10: + expects at least 2 arguments"),
        ("(-)", "2:10: - expects at least 2 arguments"),
        ("(* x)", "2:10: * expects at least 2 arguments"),
        ("(=> p)", "2:10: => expects at least 2 arguments"),
        ("(< x)", "2:10: < expects at least 2 arguments"),
        ("(<= x)", "2:10: <= expects at least 2 arguments"),
        ("(> x)", "2:10: > expects at least 2 arguments"),
        ("(>= x)", "2:10: >= expects at least 2 arguments"),
        ("(= x)", "2:10: = expects at least 2 arguments"),
        ("(distinct x)", "2:10: distinct expects at least 2 arguments"),
        # an operand that is not an Int
        ("(+ x p)", "2:10: expected an Int expression"),
        ("(- x p)", "2:10: expected an Int expression"),
        ("(* p x)", "2:10: expected an Int expression"),
        ("(- p)", "2:10: expected an Int expression"),
        ("(< x p)", "2:10: expected an Int expression"),
        ("(>= a 1)", "2:10: expected an Int expression"),
        ("(select a p)", "2:10: expected an Int expression"),
        ("(store a 1 p)", "2:10: expected an Int expression"),
        ("(store a p 1)", "2:10: expected an Int expression"),
        ("(f p)", "2:10: expected an Int expression"),
        ("(f a)", "2:10: expected an Int expression"),
        ("(ite p x q)", "2:10: expected an Int expression"),
        ("(ite p a b)", "2:10: expected an Int expression"),
        ("(<= 0 (+ x (select a (* 2 p))))", "2:31: expected an Int expression"),
        # an operand that is not a Bool
        ("(not x)", "2:10: expected a Bool expression"),
        ("(and p x)", "2:10: expected a Bool expression"),
        ("(or x)", "2:10: expected a Bool expression"),
        ("(=> p x)", "2:10: expected a Bool expression"),
        ("(xor p x)", "2:10: expected a Bool expression"),
        ("(ite x 1 2)", "2:10: expected a Bool expression"),
        ("(or p (and q (not y)))", "2:23: expected a Bool expression"),
        # an operand that is not an array
        ("(select x 1)", "2:10: expected an (Array Int Int) expression"),
        ("(store x 1 2)", "2:10: expected an (Array Int Int) expression"),
        ("(select (f 1) 0)", "2:10: expected an (Array Int Int) expression"),
        # operands of different sorts
        ("(distinct x p)", "2:10: distinct operands have different sorts"),
        ("(distinct p x)", "2:10: distinct operands have different sorts"),
        ("(distinct x a)", "2:10: distinct operands have different sorts"),
        ("(distinct p q x)", "2:10: distinct operands have different sorts"),
        ("(= x p)", "2:10: = operands have different sorts"),
        ("(= p x)", "2:10: = operands have different sorts"),
        ("(= x a)", "2:10: = operands have different sorts"),
        ("(= x y p)", "2:10: = operands have different sorts"),
        # heads outside the table
        ("(foo x)", "2:10: unknown operator 'foo'"),
        ("(g 1)", "2:10: unknown operator 'g'"),
        ("()", "2:10: empty application"),
        ("((+ x 1) 2)", "2:10: expected an operator symbol"),
        ("(!)", "2:10: empty attribute expression"),
        ("(let x p)", "2:10: malformed let"),
        ("(let ((z)) z)", "2:10: malformed let binding"),
        ("f", "2:10: function 'f' used without arguments"),
    ])
    def test_syntax_error_text(self, expr, message):
        with pytest.raises(SmtSyntaxError) as info:
            parse_problem(f"{self.DECLS}  (assert {expr})")
        assert str(info.value) == message

    @pytest.mark.parametrize("expr, message", [
        ("(div x 2)", "operator div is outside the supported fragment"),
        ("(mod x 2)", "operator mod is outside the supported fragment"),
        ("(abs x)", "operator abs is outside the supported fragment"),
        ("(forall ((z Int)) p)", "quantifiers are not supported"),
        ("(exists ((z Int)) p)", "quantifiers are not supported"),
        ("(distinct p q p)", "distinct over more than two Bool terms"),
        ("(distinct a b a)", "distinct over array terms"),
    ])
    def test_unsupported_feature_text(self, expr, message):
        with pytest.raises(UnsupportedFeature) as info:
            parse_problem(f"{self.DECLS}  (assert {expr})")
        assert str(info.value) == f"2:10: {message}"

    @pytest.mark.parametrize("text, message", [
        ("(declare-const x Real)", "unsupported sort 'Real'"),
        ("(declare-const x (Array Int Bool))", "unsupported sort (Array Int Bool)"),
        ("(declare-const x (Array Int (Array Int Int)))", "unsupported sort (Array Int (...))"),
        ("(declare-fun f (Int) Bool)", "only unary Int -> Int uninterpreted functions are supported"),
    ])
    def test_unsupported_sort_text(self, text, message):
        with pytest.raises(UnsupportedFeature) as info:
            parse_problem(text)
        # at the sort, or at the parameter list of a function: after the name
        assert str(info.value) == f"1:{text.index(' ', text.index(' ') + 1) + 1}: {message}"


class TestCheckOrder:
    """Every application is checked in one order: the number of operands,
    then each operand parsed, then the sort of each, left to right.  An
    input with two errors reports the first in that order."""

    DECLS = TestPinnedErrors.DECLS

    @pytest.mark.parametrize("expr, message", [
        ("(+ (g 1))", "2:10: + expects at least 2 arguments"),
        ("(- (g 1) x x)", "2:13: unknown operator 'g'"),
        ("(* (g 1))", "2:10: * expects at least 2 arguments"),
        ("(ite x (g 1) 2)", "2:17: unknown operator 'g'"),
        ("(select p (g 1))", "2:20: unknown operator 'g'"),
        ("(and x (g 1))", "2:17: unknown operator 'g'"),
        ("(store p q a)", "2:10: expected an (Array Int Int) expression"),
    ])
    def test_first_error_in_check_order(self, expr, message):
        with pytest.raises(SmtSyntaxError) as info:
            parse_problem(f"{self.DECLS}  (assert {expr})")
        assert str(info.value) == message


class TestDefineFun:
    """A zero-parameter define-fun is inlined, and its body must have the
    sort it declares; a body of another sort is an error at the body."""

    @pytest.mark.parametrize("text, message", [
        ("(define-fun c () Int true)(assert c)", "1:21: expected an Int expression"),
        ("(declare-const x Int)(define-fun c () Bool (+ x 1))(assert (> c 0))", "1:43: expected a Bool expression"),
        ("(declare-const x Int)\n(define-fun c () (Array Int Int) x)", "2:33: expected an (Array Int Int) expression"),
    ])
    def test_body_of_another_sort_is_rejected(self, text, message):
        with pytest.raises(SmtSyntaxError) as info:
            parse_problem(text)
        assert str(info.value) == message

    def test_body_of_its_sort_is_inlined(self):
        p = parse_problem(
            "(declare-const x Int)(declare-const a (Array Int Int))(define-fun b () Bool (> x 1))"
            "(define-fun c () (Array Int Int) a)(assert (and b (= (select c x) 2)))"
        )
        gt = Atom(Rel.GT, IntVar("x"), IntConst(1))
        assert p.assertion == And((gt, Atom(Rel.EQ, Select(ArrayVar("a"), IntVar("x")), IntConst(2))))

    def test_declared_sort_must_be_supported(self):
        with pytest.raises(UnsupportedFeature, match="unsupported sort 'Real'"):
            parse_problem("(define-fun c () Real 1)")


class TestChainable:
    DECLS = "(declare-const x Int)(declare-const y Int)(declare-const p Bool)(declare-const q Bool)(declare-const r Bool)"
    X, Y = IntVar("x"), IntVar("y")

    def _parse(self, expr: str):
        return parse_problem(f"{self.DECLS}(assert {expr})").assertion

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_relations_hold_between_adjacent_arguments(self, op):
        rel = Rel(op)
        assert self._parse(f"({op} 0 x y 1000)") == And(
            (Atom(rel, IntConst(0), self.X), Atom(rel, self.X, self.Y), Atom(rel, self.Y, IntConst(1000)))
        )

    def test_int_equality_chains(self):
        assert self._parse("(= x y 3)") == And((Atom(Rel.EQ, self.X, self.Y), Atom(Rel.EQ, self.Y, IntConst(3))))

    def test_bool_equality_chains_as_iff(self):
        p, q, r = BoolVar("p"), BoolVar("q"), BoolVar("r")
        assert self._parse("(= p q r)") == And((_iff(p, q), _iff(q, r)))

    def test_two_arguments_parse_as_one_atom(self):
        assert self._parse("(<= 0 x)") == Atom(Rel.LE, IntConst(0), self.X)
        assert self._parse("(= x y)") == Atom(Rel.EQ, self.X, self.Y)
        assert self._parse("(= p q)") == _iff(BoolVar("p"), BoolVar("q"))

    @pytest.mark.parametrize("expr", ["(<= x)", "(= x)", "(< 0 x p)", "(= x y p)", "(= p q x)"])
    def test_too_few_arguments_or_mixed_sorts_rejected(self, expr):
        with pytest.raises(SmtSyntaxError):
            self._parse(expr)


# SMT-LIB expressions as nested tuples (operator, argument, ...) over the
# symbols x, y, z (Int) and p, q, r (Bool), which `oracle.o_sexpr` evaluates
def _app(op: str, least: int, most: int, args):
    return st.lists(args, min_size=least, max_size=most).map(lambda xs: (op, *xs))


_INT_LEAVES = st.one_of(st.sampled_from("xyz"), st.integers(-3, 3))
_INTS = st.one_of(_INT_LEAVES, st.tuples(st.just("ite"), st.sampled_from("pqr"), _INT_LEAVES, _INT_LEAVES))
_ATOMS = st.one_of(
    st.sampled_from("pqr"),
    st.sampled_from(["<", "<=", ">", ">=", "="]).flatmap(lambda op: _app(op, 2, 3, _INTS)),
    _app("distinct", 2, 4, _INTS),
)
_BOOLS = st.recursive(
    _ATOMS,
    lambda kids: st.one_of(
        _app("not", 1, 1, kids), _app("and", 1, 3, kids), _app("or", 1, 3, kids),
        _app("=>", 2, 3, kids), _app("xor", 2, 2, kids), _app("=", 2, 3, kids),
        _app("distinct", 2, 2, kids), _app("ite", 3, 3, kids),
    ),
    max_leaves=10,
)
_ENVS = st.fixed_dictionaries({**{n: st.integers(-3, 3) for n in "xyz"}, **{n: st.booleans() for n in "pqr"}})


def _text(e) -> str:
    if isinstance(e, tuple):
        return "(" + " ".join([e[0], *map(_text, e[1:])]) + ")"
    return e if isinstance(e, str) else print_term(IntConst(e))


class TestLowering:
    """The parser lowers =>, xor, = over Bools, distinct and Boolean ite to
    not/and/or over atoms."""

    DECLS = "".join(f"(declare-const {n} Int)" for n in "xyz") + "".join(f"(declare-const {n} Bool)" for n in "pqr")
    P, Q, R = BoolVar("p"), BoolVar("q"), BoolVar("r")

    def _parse(self, expr: str):
        return parse_problem(f"{self.DECLS}(assert {expr})").assertion

    @pytest.mark.parametrize("expr, expected", [
        ("(=> p q)", Or((Not(P), Q))),
        ("(=> p q r)", Or((Not(P), Not(Q), R))),
        ("(xor p q)", Or((And((P, Not(Q))), And((Not(P), Q))))),
        ("(distinct p q)", Or((And((P, Not(Q))), And((Not(P), Q))))),
        ("(ite p q r)", Or((And((P, Q)), And((Not(P), R))))),
    ])
    def test_each_operator_lowers_to_and_or_not(self, expr, expected):
        assert self._parse(expr) == expected

    @given(_BOOLS, _ENVS)
    @settings(max_examples=300, deadline=None)
    def test_lowering_agrees_with_the_operator_definitions(self, e, env):
        f = self._parse(_text(e))
        assert o_formula(f, env) == o_sexpr(e, env)
        assert o_formula(to_nnf(preprocess(f)), env) == o_sexpr(e, env)

    @given(_BOOLS)
    @settings(max_examples=200, deadline=None)
    def test_printing_a_parsed_formula_parses_back_to_it(self, e):
        f = self._parse(_text(e))
        assert self._parse(print_formula(f)) == f


class TestRoundTrip:
    CORPUS = [
        "(declare-const x Int)(assert (>= x 0))",
        "(declare-const x Int)(declare-const y Int)(assert (<= (- x (* 5 y)) 7))",
        "(declare-const x Int)(assert (= x (- 5)))",
        "(declare-const a (Array Int Int))(declare-const i Int)(assert (= (select a i) 3))",
        "(declare-const a (Array Int Int))(declare-const b (Array Int Int))(assert (= a b))",
        "(declare-const a (Array Int Int))(assert (distinct a ((as const (Array Int Int)) 0)))"
        if False
        else "(declare-const a (Array Int Int))(declare-const b (Array Int Int))(assert (distinct a b))",
        "(declare-const x Int)(assert (or (< x 0) (> x 10)))",
        "(declare-const x Int)(assert (and (<= x 5)))",
        "(declare-const p Bool)(assert p)",
        "(declare-const p Bool)(assert (not p))",
        "(declare-fun f (Int) Int)(assert (<= (f 3) 9))",
        "(declare-const a (Array Int Int))(declare-const i Int)"
        "(assert (>= (select (store a i 4) 0) 1))",
        "(declare-const x Int)(declare-const y Int)(assert (distinct x y))",
        "(declare-const x Int)(declare-const y Int)(declare-const z Int)(assert (distinct x y z))",
        "(declare-const x Int)(assert (= (* x x) 49))",
        "(declare-const x Int)(assert (<= (+ x 1 2) 9))",
        "(declare-const p Bool)(declare-const q Bool)(assert (= p q))",
        "(declare-const p Bool)(declare-const q Bool)(assert (xor p q))",
        "(declare-const p Bool)(declare-const q Bool)(assert (=> p q))",
        "(set-logic QF_LIA)(declare-const x Int)(assert (> x (- 2)))(check-sat)(exit)",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_print_parse_stable(self, text):
        p1 = parse_problem(text)
        printed = print_problem(p1)
        p2 = parse_problem(printed)
        assert p1.assertion == p2.assertion
        assert [(d.name, d.sort, d.is_function) for d in p1.declarations] == [
            (d.name, d.sort, d.is_function) for d in p2.declarations
        ]

    def test_random_formulas_round_trip(self):
        rng = random.Random(5)
        decls = "(declare-const x Int)(declare-const y Int)(declare-const z Int)"
        for _ in range(150):
            f = random_formula(rng, ["x", "y", "z"], 3)
            text = decls + f"(assert {print_formula(f)})"
            assert parse_problem(text).assertion == f

    def test_canonical_negative_print(self):
        assert print_term(IntConst(-5)) == "(- 5)"
        assert print_term(IntConst(5)) == "5"

    def test_single_element_connectives_print_flat(self):
        a = Atom(Rel.LE, IntVar("x"), IntConst(7))
        assert print_formula(And((a,))) == "(<= x 7)"
        assert print_formula(Atom(Rel.LE, IntVar("x"), IntConst(7))) == "(<= x 7)"
        assert print_formula(And(())) == "true"
        assert print_formula(Or(())) == "false"

    def test_quoted_symbols(self):
        p = parse_problem("(declare-const |my var| Int)(assert (>= |my var| 0))")
        assert p.assertion == Atom(Rel.GE, IntVar("my var"), IntConst(0))
        assert "|my var|" in print_formula(p.assertion)


class TestPinnedPrint:
    """The bytes the printer writes, for terms and formulas of every node
    type; solver queries and the intervals file are made of them."""

    X, A = IntVar("x"), ArrayVar("a")

    @pytest.mark.parametrize("node, text", [
        (IntConst(0), "0"),
        (IntConst(-5), "(- 5)"),
        (IntVar("my var"), "|my var|"),
        (IntVar("1x"), "|1x|"),
        (IntVar("x!1"), "x!1"),
        (ArrayVar("a b"), "|a b|"),
        (Add((X,)), "(+ x)"),
        (Sub(X, IntConst(-2)), "(- x (- 2))"),
        (Mul((IntConst(-1), X)), "(* (- 1) x)"),
        (Ite(BoolVar("p"), X, IntConst(-1)), "(ite p x (- 1))"),
        (Ite(Atom(Rel.NE, X, IntConst(1)), IntConst(2), X), "(ite (distinct x 1) 2 x)"),
        (Select(Store(A, IntConst(1), IntConst(2)), IntConst(0)), "(select (store a 1 2) 0)"),
        (Store(A, fun_app("f", X), IntConst(3)), "(store a (f x) 3)"),
        (Store(A, fun_app("my f", fun_app("f", IntConst(-1))), X), "(store a (|my f| (f (- 1))) x)"),
        (Select(ArrayVar("b", function=False), X), "(select b x)"),
    ])
    def test_term_text(self, node, text):
        assert print_term(node) == text

    @pytest.mark.parametrize("node, text", [
        (BoolConst(True), "true"),
        (BoolConst(False), "false"),
        (BoolVar("p q"), "|p q|"),
        (Not(BoolVar("p")), "(not p)"),
        (And(()), "true"),
        (Or(()), "false"),
        (And((BoolVar("p"),)), "p"),
        (Or((Not(BoolVar("p")),)), "(not p)"),
        (And((BoolVar("p"), Or(()))), "(and p false)"),
        (Atom(Rel.NE, X, IntConst(-3)), "(distinct x (- 3))"),
        (Atom(Rel.EQ, Store(A, X, X), ArrayVar("b")), "(= (store a x x) b)"),
        (Or((Atom(Rel.LT, fun_app("f", X), IntConst(0)), BoolVar("p"))), "(or (< (f x) 0) p)"),
    ])
    def test_formula_text(self, node, text):
        assert print_formula(node) == text

    def test_random_formulas_print_to_pinned_bytes(self):
        rng = random.Random(2212)
        ints, arrays, funs = ["x", "y", "my var"], ["a", "b c"], ["f", "1g"]
        digest = hashlib.sha256()
        for _ in range(300):
            texts = [
                print_formula(random_formula(rng, ints, 3)),
                print_formula(random_nnf_formula(rng, ints, 3)),
                print_formula(random_array_formula(rng, ints, arrays, funs, 3)),
                print_term(random_array_term(rng, ints, arrays, funs, 3)),
                print_term(Store(
                    ArrayVar(rng.choice(arrays)),
                    random_array_term(rng, ints, arrays, funs, 2),
                    random_array_term(rng, ints, arrays, funs, 2),
                )),
            ]
            digest.update(("\n".join(texts) + "\n").encode())
        assert digest.hexdigest() == "ff3761661c77306a379c3af704ee37d1750e8c6be3ec4f42350a87d4fe206976"


def _end(text: str) -> int | None:
    """Where reading `text` stops: past its first s-expression, or past a
    stray ")" that it reports; None while nothing is complete."""
    try:
        read = read_sexpr(text)
    except SmtSyntaxError as exc:
        assert "unbalanced ')'" in str(exc)
        return exc.offset + 1
    return None if read is None else read[1]


def _shape(sexpr):
    return sexpr.text if sexpr.is_atom else [_shape(item) for item in sexpr.items]


def _read_fed(chunks) -> tuple[list, str]:
    """What a :class:`StreamReader` fed `chunks` one at a time yields, with
    each stray ")" as its message, and the text it leaves unread."""
    reader = StreamReader()
    exprs = [
        str(read) if isinstance(read, SmtSyntaxError) else _shape(read)
        for chunk in chunks
        for read in reader.feed(chunk)
    ]
    return exprs, reader.text[reader.pos :]


class TestSexprEnd:
    """Where :func:`read_sexpr` finds the first s-expression of a text to end."""

    def test_complete_and_incomplete(self):
        assert _end("(check-sat)\n(exit)") == len("(check-sat)")
        assert _end("  (assert (> x 2)") is None
        assert _end("(assert (> x 2)\n)") == len("(assert (> x 2)\n)")
        assert _end("") is None and _end(" \n; only a comment (") is None

    def test_parens_in_strings_symbols_and_comments_do_not_count(self):
        assert _end('(echo ")(")') == len('(echo ")(")')
        assert _end("(declare-const |a)b| Int)") == len("(declare-const |a)b| Int)")
        assert _end("(check-sat ; )\n)") == len("(check-sat ; )\n)")

    def test_quote_is_escaped_by_doubling_not_by_backslash(self):
        # SMT-LIB 2.6 writes a quote inside a string as "": a backslash is
        # an ordinary character, so this error message is complete
        text = '(error "C:\\")'
        assert _end(text) == len(text)
        assert _end('(echo "say ""hi"")")') == len('(echo "say ""hi"")")')
        assert _end('(echo "open)') is None

    def test_stray_close_paren_ends_an_erroneous_command(self):
        assert _end(")\n(check-sat)") == 1
        assert _end("  ) (check-sat)") == 3

    def test_top_level_atom_is_complete(self):
        assert _end("sat") == 3
        assert _end("  unknown\n") == len("  unknown")

    def test_a_string_with_an_escaped_quote_is_one_atom(self):
        reply = '(error "1:11: undeclared symbol \'a""b\'")'
        sexpr, end = read_sexpr(reply + " sat")
        assert _shape(sexpr) == ["error", '"1:11: undeclared symbol \'a""b\'"'] and end == len(reply)
        assert _end('"open ""') is None  # the doubled quote does not close the string

    def test_reading_starts_at_pos(self):
        text = "(a) (b c)"
        sexpr, end = read_sexpr(text, 3)
        assert _shape(sexpr) == ["b", "c"] and sexpr.offset == 4 and end == len(text)
        assert read_sexpr(text, end) is None

    def test_stream_holds_back_an_atom_until_it_is_complete(self):
        assert _read_fed(["(a) sa", "t", "\n"]) == ([["a"], "sat"], "\n")
        assert _read_fed(["sat"]) == ([], "sat")

    def test_stream_reports_a_stray_paren_and_reads_on(self):
        reader = StreamReader()
        assert _read_fed([") (a", " b)\n(c", ")"]) == (["1:0: unbalanced ')'", ["a", "b"], ["c"]], "")
        assert list(reader.feed('(echo "a)')) == [] and reader.text[reader.pos :] == '(echo "a)'

    def test_stream_locates_errors_in_the_stream(self):
        # positions count the lines read before and the columns of earlier
        # commands on the same line
        reader = StreamReader()
        fed = [read for line in ["(a)\n", "\n", "(b) (c\n", " d) )\n"] for read in reader.feed(line)]
        assert [_shape(read) for read in fed[:3]] == [["a"], ["b"], ["c", "d"]]
        assert reader.locate(fed[3]) == "4:4: unbalanced ')'"
        reader = StreamReader()
        nodes = [read for line in ["(a)\n", "(b)\n", "  (c x)\n"] for read in reader.feed(line)]
        assert reader.locate(nodes[-1].items[1].error("bad x")) == "3:5: bad x"
        assert reader.line == 3 and reader.text[reader.pos :] == "\n"

    def test_token_pattern_uses_no_syntax_newer_than_python_3_10(self):
        # possessive quantifiers and atomic groups need Python 3.11, and the
        # package supports 3.10
        for syntax in ("*+", "++", "?+", "}+", "(?>"):
            assert syntax not in _TOKEN.pattern

    def test_whole_text_that_ends_inside_an_expression_is_an_error(self):
        with pytest.raises(SmtSyntaxError, match="unbalanced"):
            read_sexprs("(a (b)")
        assert read_sexprs(" ; nothing\n") == []

    @given(st.text(alphabet='()|;"ab \n', max_size=60), st.lists(st.integers(0, 60), max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_reading_line_by_line_agrees_with_reading_whole(self, text, cuts):
        """Fed a line at a time, as the minisolver reads its input, or in
        pieces cut anywhere, as the client reads replies, a text reads as the
        same s-expressions as when it is read whole, but for a trailing atom
        that the next piece could go on with, which is left unread."""
        exprs, rest = _read_fed([text])
        assert _read_fed(text.splitlines(keepends=True)) == (exprs, rest)
        cuts = sorted({min(cut, len(text)) for cut in cuts})
        assert _read_fed(text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])) == (exprs, rest)
        try:
            whole = read_sexprs(text)
        except SmtSyntaxError:
            return
        assert exprs + [_shape(s) for s in read_sexprs(rest)] == [_shape(s) for s in whole]


class TestFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=400, deadline=None)
    def test_parser_never_crashes_on_bytes(self, blob):
        try:
            parse_problem(blob.decode("utf-8", errors="replace"))
        except (SmtSyntaxError, UnsupportedFeature):
            pass

    @given(st.text(alphabet="()|;\"ab einx0123456789-+*<=> \n", max_size=200))
    @settings(max_examples=400, deadline=None)
    def test_parser_never_crashes_on_smtlib_like_text(self, text):
        try:
            parse_problem(text)
        except (SmtSyntaxError, UnsupportedFeature):
            pass
