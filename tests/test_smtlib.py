"""SMT-LIB reader/writer: examples, round trips, fuzz robustness."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxsampler.errors import SmtSyntaxError, UnsupportedFeature
from boxsampler.smtlib import (
    _read_sexprs,
    _tokenize,
    parse_problem,
    print_formula,
    print_problem,
    print_term,
    sexpr_end,
)
from boxsampler.terms import (
    Add,
    And,
    ArrayVar,
    Atom,
    BoolVar,
    IntConst,
    IntVar,
    Mul,
    Not,
    Or,
    Rel,
    Select,
    Sort,
)
from oracle import random_formula


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
        assert decl.is_function

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


class TestSexprEnd:
    def test_complete_and_incomplete(self):
        assert sexpr_end("(check-sat)\n(exit)") == len("(check-sat)")
        assert sexpr_end("  (assert (> x 2)") is None
        assert sexpr_end("(assert (> x 2)\n)") == len("(assert (> x 2)\n)")
        assert sexpr_end("") is None and sexpr_end(" \n; only a comment (") is None

    def test_parens_in_strings_symbols_and_comments_do_not_count(self):
        assert sexpr_end('(echo ")(")') == len('(echo ")(")')
        assert sexpr_end("(declare-const |a)b| Int)") == len("(declare-const |a)b| Int)")
        assert sexpr_end("(check-sat ; )\n)") == len("(check-sat ; )\n)")

    def test_quote_is_escaped_by_doubling_not_by_backslash(self):
        # SMT-LIB 2.6 writes a quote inside a string as "": a backslash is
        # an ordinary character, so this error message is complete
        text = '(error "C:\\")'
        assert sexpr_end(text) == len(text)
        assert sexpr_end('(echo "say ""hi"")")') == len('(echo "say ""hi"")")')
        assert sexpr_end('(echo "open)') is None

    def test_stray_close_paren_ends_an_erroneous_command(self):
        assert sexpr_end(")\n(check-sat)") == 1
        assert sexpr_end("  ) (check-sat)") == 3

    def test_top_level_atom_is_complete(self):
        assert sexpr_end("sat") == 3
        assert sexpr_end("  unknown\n") == len("  unknown")

    @given(st.text(alphabet='()|;"ab \n', max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_splitting_agrees_with_the_tokenizer(self, text):
        """Cutting `text` at each end in turn keeps its tokens; every piece
        but the last reads as one s-expression or a stray `)`."""
        try:
            whole = [t.text for t in _tokenize(text)]
        except SmtSyntaxError:
            assume(False)
        tokens = []
        rest = text
        while (end := sexpr_end(rest)) is not None:
            piece, rest = rest[:end], rest[end:]
            tokens += [t.text for t in _tokenize(piece)]
            try:
                assert len(_read_sexprs(piece)) == 1
            except SmtSyntaxError as exc:
                assert "unbalanced ')'" in str(exc) and piece.strip().endswith(")")
        tokens += [t.text for t in _tokenize(rest)]
        assert tokens == whole
        try:
            assert _read_sexprs(rest) == []  # nothing complete is left behind
        except SmtSyntaxError as exc:
            assert "unbalanced '('" in str(exc)


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
