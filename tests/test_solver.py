"""Solver backend: model parsing, process protocol, degradation, re-check."""

import dataclasses
import hashlib
import random
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler.errors import BoxsamplerError, ModelParseError
from boxsampler.minisolver import LocalSolverClient, _format_model
from boxsampler.intervals import Interval, IntervalMap, neg_to_formula
from boxsampler.sampler import (
    BlockingHistory,
    RunStats,
    SamplerConfig,
    canonical_assignment,
    get_seed_blocking,
    sample_formula,
)
from boxsampler.smtlib import Declaration, parse_problem, print_formula, read_sexpr, read_sexprs
from boxsampler import solver as solver_mod
from boxsampler.solver import (
    ProcessSolverClient,
    _ProcessHandle,
    SolverRequest,
    VerdictKind,
    parse_model,
)
from boxsampler.terms import (
    ArrayVar,
    Atom,
    BoolVar,
    FuncValue,
    IntConst,
    IntVar,
    Model,
    Or,
    Rel,
    Select,
    Sort,
    eval_formula,
)

from oracle import deep_and_or, random_array_formula

MODELS_DIR = Path(__file__).parent / "data" / "models"
MINISOLVER_CMD = f"{sys.executable} -m boxsampler.minisolver"

# Python caps int(str) at 4300 digits by default from 3.11 and 3.10.7 on;
# where there is no cap (older, or PYTHONINTMAXSTRDIGITS=0) a long numeral is fine
needs_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int(str) has no digit limit"
)


def D(name, sort=Sort.INT, fn=False):
    return Declaration(name, Sort.ARRAY if fn else sort, is_function=fn)


def read_model(name: str):
    """The reply of a recorded model file, as the client reads it."""
    return read_sexprs((MODELS_DIR / name).read_text())[0]


class TestParseModel:
    def test_plain_ints(self):
        m = parse_model(read_model("m01_plain_ints.txt"), [D("x"), D("y")])
        assert m.ints == {"x": 12, "y": 2}

    def test_model_keyword_and_negative(self):
        m = parse_model(read_model("m02_model_keyword.txt"), [D("x"), D("y")])
        assert m.ints == {"x": 5, "y": -3}

    def test_bools(self):
        decls = [D("p", Sort.BOOL), D("q", Sort.BOOL), D("x")]
        m = parse_model(read_model("m03_bools.txt"), decls)
        assert m.bools == {"p": True, "q": False} and m.ints == {"x": 0}

    def test_const_array(self):
        m = parse_model(read_model("m04_const_array.txt"), [D("a", Sort.ARRAY)])
        assert m.funcs["a"] == FuncValue(0)

    def test_store_array(self):
        m = parse_model(read_model("m05_store_array.txt"), [D("a", Sort.ARRAY)])
        assert m.funcs["a"] == FuncValue(7, {1: 9})

    def test_store_chain(self):
        m = parse_model(read_model("m06_store_chain.txt"), [D("a", Sort.ARRAY)])
        assert m.funcs["a"] == FuncValue(0, {1: 9, -2: 4})

    def test_as_array(self):
        m = parse_model(read_model("m07_as_array.txt"), [D("a", Sort.ARRAY)])
        assert m.funcs["a"] == FuncValue(5, {3: 12})

    def test_fun_ite_chain(self):
        m = parse_model(read_model("m08_fun_ite.txt"), [D("f", fn=True)])
        assert m.funcs["f"] == FuncValue(0, {0: 1, 2: -7})

    def test_fun_const(self):
        m = parse_model(read_model("m09_fun_const.txt"), [D("f", fn=True)])
        assert m.funcs["f"] == FuncValue(42)

    def test_lambda_array(self):
        m = parse_model(read_model("m10_lambda_array.txt"), [D("a", Sort.ARRAY)])
        assert m.funcs["a"] == FuncValue(1, {4: 8})

    def test_big_negative_int(self):
        m = parse_model(read_model("m11_negative_int.txt"), [D("z")])
        assert m.ints["z"] == -123456789012345678901234567890

    def test_mixed(self):
        decls = [D("i"), D("b", Sort.BOOL), D("a", Sort.ARRAY), D("f", fn=True)]
        m = parse_model(read_model("m12_mixed.txt"), decls)
        assert m.ints["i"] == 3 and m.bools["b"] is True
        assert m.funcs["a"] == FuncValue(-1, {3: 6})
        assert m.funcs["f"] == FuncValue(-2, {3: 0})

    def test_missing_symbols_filled_with_defaults(self):
        decls = [D("x"), D("y"), D("p", Sort.BOOL), D("a", Sort.ARRAY)]
        m = parse_model(read_model("m13_missing_symbol.txt"), decls)
        assert m.ints == {"x": 4, "y": 0}
        assert m.bools == {"p": False}
        assert m.funcs["a"] == FuncValue(0)

    def test_quoted_symbol(self):
        m = parse_model(read_model("m14_quoted_symbol.txt"), [D("weird name")])
        assert m.ints["weird name"] == 11

    def test_ite_with_flipped_equality(self):
        m = parse_model(read_model("m15_ite_flipped_eq.txt"), [D("f", fn=True)])
        assert m.funcs["f"] == FuncValue(2, {5: 9})

    def test_duplicate_ite_key_first_wins(self):
        m = parse_model(read_model("m16_dup_exception.txt"), [D("f", fn=True)])
        assert m.funcs["f"] == FuncValue(0, {1: 3})

    def test_zero_defaults(self):
        decls = [D("a", Sort.ARRAY), D("x")]
        m = parse_model(read_model("m17_zero_defaults.txt"), decls)
        assert m.funcs["a"] == FuncValue(0) and m.ints["x"] == 0

    def test_store_over_as_array(self):
        m = parse_model(read_model("m18_store_over_asarray.txt"), [D("a", Sort.ARRAY)])
        assert m.funcs["a"] == FuncValue(0, {9: 9, 0: 2})

    def test_big_ints(self):
        m = parse_model(read_model("m19_big_ints.txt"), [D("x"), D("y")])
        assert m.ints["x"] == 99999999999999999999999999

    def test_exception_equal_to_default_dropped(self):
        m = parse_model(read_model("m20_exception_equal_default.txt"), [D("a", Sort.ARRAY)])
        assert m.funcs["a"] == FuncValue(5)

    def test_golden_corpus_all_parse(self):
        # every recorded output parses with permissive declarations
        for path in sorted(MODELS_DIR.glob("m*.txt")):
            parse_model(read_model(path.name), [])  # ignoring declarations must not crash

    def test_garbage_rejected(self):
        # each reply holds one fault, and the error names it in these words
        for reply, decl, message in (
            ("sat", D("x"), "expected a model, got 'sat'"),
            ("((define-fun x () Int (+ 1 2 oops)))", D("x"), "not an integer constant: (+ 1 2 oops)"),
            ("((define-fun x () Int (- (- y))))", D("x"), "not an integer constant: y"),
            ("((define-fun p () Bool 1))", D("p", Sort.BOOL), "not a boolean constant: 1"),
            ("((declare-fun f () Int))", D("f"), "unexpected model entry: (declare-fun f () Int)"),
            ("((define-fun f ((x Int) (y Int)) Int 0))", D("f", fn=True), "function of arity > 1 in model: f"),
            # a parameter that is an atom
            ("((define-fun f (x) Int 0))", D("f", fn=True), "unexpected parameter list: (x)"),
            # no else branch
            ("((define-fun f ((x Int)) Int (ite (= x 1) 2)))", D("f", fn=True), "unsupported function body: (ite (= x 1) 2)"),
            ("((define-fun f ((x Int)) Int (ite (< x 1) 2 3)))", D("f", fn=True), "unsupported function body: (ite (< x 1) 2 3)"),
            ("((define-fun a () (Array Int Int) (lambda (x) 0)))", D("a", Sort.ARRAY), "unexpected parameter list: (x)"),
            ("((define-fun a () (Array Int Int) ()))", D("a", Sort.ARRAY), "not an array value: ()"),
            ("((define-fun a () (Array Int Int) (select b 1)))", D("a", Sort.ARRAY), "unsupported array value: (select b 1)"),
            (
                "((define-fun a () (Array Int Int) ((as const (Array Int Int)) 1 2)))",
                D("a", Sort.ARRAY),
                "unsupported array value: ((as const (Array Int Int)) 1 2)",
            ),
            ("((define-fun a () (Array Int Int) (_ as-array k)))", D("a", Sort.ARRAY), "as-array refers to unknown function k"),
            # a function where a constant is declared, a constant where a
            # function is, and a function where an array is
            ("((define-fun x ((y Int)) Int 0))", D("x"), "expected a constant value for x"),
            ("((define-fun f () Int 0))", D("f", fn=True), "expected a unary function body for f"),
            ("((define-fun a ((x Int)) Int 0))", D("a", Sort.ARRAY), "expected an array value for a"),
        ):
            with pytest.raises(ModelParseError) as exc:
                parse_model(read_sexprs(reply)[0], [decl])
            assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The model reader over seeded and random replies


def _num(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


def _value(rng: random.Random, default: int) -> int:
    """A cell value: now and then the default, else small or big."""
    return rng.choice((default, rng.randint(-3, 3), rng.randint(-(2**90), 2**90)))


def _ite_body(rng: random.Random, param: str, default: int) -> str:
    """An ite chain over `param` whose keys repeat now and then, with the
    equality written either way round."""
    body = _num(default)
    for _ in range(rng.randint(0, 4)):
        key = _num(rng.randint(-2, 2))
        cond = f"(= {param} {key})" if rng.random() < 0.7 else f"(= {key} {param})"
        body = f"(ite {cond} {_num(_value(rng, default))} {body})"
    return body


def _array_body(rng: random.Random, entries: list[str]) -> str:
    """A store chain, whose indices repeat now and then, over a constant
    array, a lambda, or an as-array of a function that is added to `entries`."""
    default = _value(rng, 0)
    base = rng.randrange(3)
    if base == 0:
        body = f"((as const (Array Int Int)) {_num(default)})"
    elif base == 1:
        body = f"(lambda ((x!1 Int)) {_ite_body(rng, 'x!1', default)})"
    else:
        helper = f"k!{len(entries)}"
        entries.append(f"(define-fun {helper} ((x!0 Int)) Int {_ite_body(rng, 'x!0', default)})")
        body = f"(_ as-array {helper})"
    for _ in range(rng.randint(0, 4)):
        body = f"(store {body} {_num(rng.randint(-2, 2))} {_num(_value(rng, default))})"
    return body


def _reply(rng: random.Random) -> tuple[str, list[Declaration]]:
    """A seeded get-model reply and the declarations it answers: ints, bools,
    arrays and functions, some of them omitted, in shuffled order, with the
    as-array functions before or after their users."""
    decls, entries = [], []
    for i in range(rng.randint(1, 6)):
        name = f"v{i}" if rng.random() < 0.9 else f"v {i}"
        kind = rng.choice((Sort.INT, Sort.BOOL, Sort.ARRAY, "function"))
        decls.append(D(name, fn=True) if kind == "function" else D(name, kind))
        if rng.random() < 0.1:
            continue  # omitted: read as the zero of its sort
        name = name if " " not in name else f"|{name}|"
        if kind is Sort.INT:
            entries.append(f"(define-fun {name} () Int {_num(_value(rng, 0))})")
        elif kind is Sort.BOOL:
            entries.append(f"(define-fun {name} () Bool {rng.choice(('true', 'false'))})")
        elif kind is Sort.ARRAY:
            entries.append(f"(define-fun {name} () (Array Int Int) {_array_body(rng, entries)})")
        else:
            entries.append(f"(define-fun {name} ((x!0 Int)) Int {_ite_body(rng, 'x!0', _value(rng, 0))})")
    rng.shuffle(entries)
    return ("(model " if rng.random() < 0.3 else "(") + "\n".join(entries) + ")", decls


def test_model_reader_matches_pinned_digest():
    """The models read from 2,000 seeded replies equal the pinned ones."""
    digest = hashlib.sha256()
    for s in range(2000):
        text, decls = _reply(random.Random(s))
        digest.update(repr(canonical_assignment(parse_model(read_sexpr(text)[0], decls))).encode())
    assert digest.hexdigest() == "9b840501e7e78248a2e164724e95a57b8276e02bb34e9c4278e0a6ab4f6d8423"


class TestParseModelDepth:
    def test_chains_of_thousands_of_links_are_read_with_the_outermost_link_winning(self):
        n = 3000
        store = "(store " * n + "((as const (Array Int Int)) 0)" + "".join(f" {k % 100} {k + 1})" for k in range(n))
        ite = "".join(f"(ite (= x!0 {k % 100}) {k + 1} " for k in range(n)) + "0" + ")" * n
        reply = f"((define-fun a () (Array Int Int) {store}) (define-fun f ((x!0 Int)) Int {ite}))"
        m = parse_model(read_sexpr(reply)[0], [D("a", Sort.ARRAY), D("f", fn=True)])
        assert m.funcs["a"] == FuncValue(0, {j: n - 100 + j + 1 for j in range(100)})
        assert m.funcs["f"] == FuncValue(0, {j: j + 1 for j in range(100)})

    def test_a_deep_fault_is_named_whole(self):
        reply = "((define-fun x () Int " + "(- " * 3000 + "y" + ")" * 3000 + "))"
        with pytest.raises(ModelParseError, match="^not an integer constant: y$"):
            parse_model(read_sexpr(reply)[0], [D("x")])
        reply = "((define-fun p () Bool " + "(a " * 3000 + ")" * 3000 + "))"
        with pytest.raises(ModelParseError) as exc:
            parse_model(read_sexpr(reply)[0], [D("p", Sort.BOOL)])
        assert str(exc.value) == "not a boolean constant: " + "(a " * 2999 + "(a)" + ")" * 2999


_WIDE = st.integers(-(2**70), 2**70)
_KINDS = {"Int": (Sort.INT, False), "Bool": (Sort.BOOL, False), "Array": (Sort.ARRAY, False), "fn": (Sort.ARRAY, True)}


@st.composite
def _declared_models(draw):
    """Declarations, some with names that print quoted, and a model that
    assigns each of them."""
    decls, m = [], Model()
    for name in draw(st.lists(st.text("ab x!0", min_size=1, max_size=3), unique=True, max_size=6)):
        sort, fn = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
        decls.append(Declaration(name, sort, is_function=fn))
        if sort is Sort.INT:
            m.ints[name] = draw(_WIDE)
        elif sort is Sort.BOOL:
            m.bools[name] = draw(st.booleans())
        else:
            m.funcs[name] = FuncValue(draw(_WIDE), draw(st.dictionaries(_WIDE, _WIDE, max_size=4)))
    return decls, m


@given(_declared_models())
@settings(max_examples=200, deadline=None)
def test_a_model_the_minisolver_prints_reads_back(declared):
    decls, m = declared
    assert parse_model(read_sexpr(_format_model(m, decls))[0], decls) == m


_JUNK_ATOMS = st.sampled_from(
    ["define-fun", "model", "ite", "store", "lambda", "as", "const", "_", "as-array", "=", "-", "x!0", "k!0",
     "Int", "Bool", "Array", "true", "false", "0", "7", "-3", "\u00b2", '"s"', "|q r|"]
)
_JUNK = st.one_of(
    st.recursive(_JUNK_ATOMS, lambda inner: st.lists(inner, max_size=4), max_leaves=12),
    st.tuples(_JUNK_ATOMS, st.integers(1, 2000)).map(lambda pair: "(- " * pair[1] + pair[0] + ")" * pair[1]),
    st.tuples(_JUNK_ATOMS, st.integers(1, 2000)).map(lambda pair: f"({pair[0]} " * pair[1] + ")" * pair[1]),
)


def _text(tree) -> str:
    return tree if isinstance(tree, str) else "(" + " ".join(map(_text, tree)) + ")"


def _tree(node):
    return node.text if node.is_atom else [_tree(item) for item in node.items]


@given(st.integers(0, 10**6), st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=6), _JUNK), max_size=3))
@settings(max_examples=300, deadline=None)
def test_the_model_reader_raises_only_its_own_error(seed, edits):
    """A seeded reply with junk put in at random depths: junk atoms, small
    lists, and nests thousands deep."""
    text, decls = _reply(random.Random(seed))
    tree = _tree(read_sexpr(text)[0])
    for path, junk in edits:
        parent, at, index = None, tree, 0
        for step in path:
            if isinstance(at, str) or not at:
                break
            parent, index = at, step % len(at)
            at = at[index]
        if parent is None:
            tree = junk
        else:
            parent[index] = junk
    try:
        parse_model(read_sexpr(_text(tree))[0], decls)
    except ModelParseError:
        pass


class TestLocalClient:
    def test_unique_model(self):
        p = parse_problem("(declare-const x Int)(assert (and (>= x 0) (<= x 0)))")
        v = LocalSolverClient().solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.is_sat and v.model.ints == {"x": 0}

    def test_unsat(self):
        p = parse_problem("(declare-const x Int)(assert (>= x 1))(assert (<= x 0))")
        v = LocalSolverClient().solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.UNSAT

    def test_toy_benchmark_model_verifies(self, data_dir):
        p = parse_problem((data_dir / "toy_branch.smt2").read_text())
        v = LocalSolverClient().solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.is_sat
        assert eval_formula(p.assertion, v.model)

    def test_max_solve_optimum(self):
        p = parse_problem("(declare-const x Int)(assert (and (>= x 0) (<= x 10)))")
        req = SolverRequest(p.declarations, [p.assertion], [(Atom(Rel.EQ, IntVar("x"), IntConst(7)), 1)])
        v = LocalSolverClient().max_solve(req)
        assert v.is_sat and v.model.ints["x"] == 7

    def test_max_solve_no_soft_same_as_solve(self):
        p = parse_problem("(declare-const x Int)(assert (>= x 3))")
        a = LocalSolverClient().solve(SolverRequest(p.declarations, [p.assertion]))
        b = LocalSolverClient().max_solve(SolverRequest(p.declarations, [p.assertion], []))
        assert a.is_sat and b.is_sat and a.model.ints == b.model.ints

    def test_conflicting_softs_hard_still_satisfied(self):
        p = parse_problem("(declare-const x Int)(assert (>= x 0))")
        softs = [
            (Atom(Rel.EQ, IntVar("x"), IntConst(1)), 1),
            (Atom(Rel.EQ, IntVar("x"), IntConst(2)), 1),
        ]
        v = LocalSolverClient().max_solve(SolverRequest(p.declarations, [p.assertion], softs))
        assert v.is_sat and v.model.ints["x"] in (1, 2)

    def test_array_equality_without_selects(self):
        p = parse_problem(
            "(declare-const a (Array Int Int))(declare-const b (Array Int Int))(assert (not (= a b)))"
        )
        v = LocalSolverClient().solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.is_sat and v.model.funcs["a"] != v.model.funcs["b"]

    def test_deeply_nested_formula(self):
        f = deep_and_or(300)
        v = LocalSolverClient().solve(SolverRequest([D("x")], [f]))
        assert v.is_sat and eval_formula(f, v.model)


def _minisolver(commands: str) -> list[str]:
    """The lines that `python -m boxsampler.minisolver` answers `commands` with."""
    session = subprocess.run(
        [sys.executable, "-m", "boxsampler.minisolver"],
        input=commands, capture_output=True, text=True, timeout=60,
    )
    return session.stdout.splitlines()


def test_pipe_reports_a_stray_paren_and_carries_on():
    lines = _minisolver(")\n(declare-fun x () Int)\n(assert (> x 2))\n(check-sat)\n")
    assert len(lines) == 2
    assert lines[0].startswith("(error") and "unbalanced ')'" in lines[0]
    assert lines[1] == "sat"


@pytest.mark.parametrize("command", ["(assert (+ x 1))", "(assert-soft (+ x 1) :weight 2)"])
def test_pipe_rejects_an_assertion_that_is_not_bool(command):
    lines = _minisolver(f"(declare-const x Int){command}(check-sat)\n")
    assert lines == ['(error "1:21: assert expects a Bool expression")', "sat"]


def test_pipe_error_positions_are_lines_and_columns_of_the_stream():
    # a command on its own line says its line; one that shares a line with
    # an earlier command counts its column from the start of the line
    lines = _minisolver(
        "(declare-const x Int)\n(assert (> x 0))\n(assert (> y 0))\n"
        "(declare-const y Int) (assert (+ y 1))\n\n  )\n(check-sat)\n"
    )
    assert lines == [
        "(error \"3:11: undeclared symbol 'y'\")",
        '(error "4:22: assert expects a Bool expression")',
        "(error \"6:2: unbalanced ')'\")",
        "sat",
    ]


def test_pipe_error_reply_with_a_quote_reads_as_one_sexpr():
    lines = _minisolver('(assert (> |a"b| 0))\n(check-sat)\n')
    assert lines == ['(error "1:11: undeclared symbol \'a""b\'")', "sat"]
    reply, end = read_sexpr(lines[0])
    assert end == len(lines[0]) and reply.items[1].text == '"1:11: undeclared symbol \'a""b\'"'


def test_pipe_pop_drops_the_declarations_of_its_scope():
    lines = _minisolver(
        "(declare-fun w () Int)\n(push 1)\n(declare-fun x () Int)\n(define-fun two () Int 2)\n"
        "(assert (> x two))\n(check-sat)\n(pop 1)\n"
        "(declare-fun y () Int)\n(assert (= y 1))\n(check-sat)\n(get-model)\n"
        "(assert (> x 0))\n(assert (> two 0))\n(reset)\n(assert (> w 0))\n"
    )
    assert lines[:2] == ["sat", "sat"]
    model = "\n".join(lines[2:-3])
    assert "define-fun w " in model and "define-fun y () Int 1" in model and " x " not in model
    assert lines[-3:] == [
        "(error \"12:11: undeclared symbol 'x'\")",
        "(error \"13:11: undeclared symbol 'two'\")",
        "(error \"15:11: undeclared symbol 'w'\")",
    ]


@pytest.mark.parametrize(
    "command, message",
    [
        ("(assert)", "assert expects one formula"),
        ("(assert-soft)", "assert-soft expects one formula"),
        ("(assert (> x 0) (< x 0))", "assert expects one formula"),
    ],
)
def test_pipe_rejects_an_assertion_without_a_formula(command, message):
    lines = _minisolver(f"(declare-const x Int)\n{command}\n(check-sat)\n")
    assert lines == [f'(error "2:0: {message}")', "sat"]


@pytest.mark.parametrize(
    "command",
    [
        "(assert (> x 0) (< x 0))",
        "(assert (+ x 1))",
        "(declare-fun f (Int Int) Int)",
        "(define-fun g ((y Int)) Int y)",
        "(set-logic QF_BV)",
        "(declare-sort U 0)",
        "(frobnicate x)",
        "frobnicate",
        "(declare-const x Bool)",
        "(declare-fun x () Int)",
        "(define-fun x () Int 3)",
    ],
)
def test_pipe_and_file_reject_a_command_with_one_message(command):
    """The parser reads the pipe's commands as it reads a problem file, so
    each bad command gets the message `parse_problem` raises, located alike."""
    text = f"(declare-const x Int)\n{command}\n"
    with pytest.raises(BoxsamplerError) as exc:
        parse_problem(text)
    assert str(exc.value).startswith("2:")
    if command in ("(set-logic QF_BV)", "(declare-sort U 0)"):
        assert str(exc.value).startswith("2:0: ")
    assert _minisolver(text + "(check-sat)\n") == [f'(error "{exc.value}")', "sat"]


def test_pipe_rejects_an_assertion_nested_too_deep_and_carries_on():
    deep = "(+ 1 " * 400 + "0" + ")" * 400
    lines = _minisolver(f"(declare-const x Int)\n(assert (> x 2))\n(assert (= x {deep}))\n(check-sat)\n(get-model)\n")
    assert lines == ['(error "3:0: expression nests too deeply")', "sat", "(", "  (define-fun x () Int 3)", ")"]


def test_pipe_declares_again_only_what_a_pop_removed():
    lines = _minisolver(
        "(declare-const x Int)\n(push 1)\n(declare-const y Bool)\n(declare-const x Bool)\n(pop 1)\n"
        "(declare-const y Int)\n(assert (> y x))\n(check-sat)\n"
    )
    assert lines == ['(error "4:15: symbol \'x\' is already declared")', "sat"]


def test_pipe_replies_that_the_session_owns():
    lines = _minisolver(
        "(get-model)\n(declare-const x Int)\n(assert (> x 3))\n(push 1)\n(assert (< x 0))\n"
        "(get-value (x))\n(pop 5)\n(assert (< x 6))\n(check-sat)\n(get-model)\n"
    )
    assert lines == [
        '(error "no model available")',
        '(error "unsupported command get-value")',
        "sat",
        "(",
        "  (define-fun x () Int 4)",
        ")",
    ]


@pytest.mark.parametrize("command", ["(push \u0663)", "(assert-soft (> x 0) :weight \u00b2)"])
def test_pipe_counts_and_weights_are_ascii_numerals(command):
    # "\u0663" (Arabic-Indic three) and "\u00b2" are digits to `str.isdigit`
    lines = _minisolver(f"(declare-const x Int)\n{command}\n(pop 1)\n(assert (< x 0))\n(check-sat)\n")
    assert lines == [f'(error "2:{len(command) - 2}: expected a numeral")', "sat"]


@needs_digit_limit
@pytest.mark.parametrize("command", ["(push 1{digits})", "(assert-soft (> x 0) :weight 1{digits})"])
def test_pipe_counts_and_weights_over_the_digit_limit_are_located_errors(command):
    command = command.format(digits="0" * 4999)
    lines = _minisolver(f"(declare-const x Int)\n{command}\n(pop 1)\n(assert (< x 0))\n(check-sat)\n")
    limit = sys.get_int_max_str_digits()
    assert lines == [f'(error "2:{command.index("10")}: numeral of 5000 digits exceeds the limit of {limit}")', "sat"]


ARRAY_DECLS = [D("i"), D("j"), D("p", Sort.BOOL), D("a", Sort.ARRAY), D("g", fn=True)]


def _array_query(s: int) -> SolverRequest:
    """A seeded query over an array, a function, two ints and a Bool: an
    `oracle` array formula, sometimes a Bool-or-select clause and finite
    bounds, and sometimes soft equalities on the ints."""
    rng = random.Random(s)
    hard = [random_array_formula(rng, ["i", "j"], ["a"], ["g"], rng.randint(0, 2))]
    if rng.random() < 0.3:
        hard.append(Or((BoolVar("p"), Atom(Rel.EQ, Select(ArrayVar("a"), IntVar("i")), IntConst(1)))))
    if rng.random() < 0.7:
        for v in ("i", "j"):
            hard += [Atom(Rel.GE, IntVar(v), IntConst(-1)), Atom(Rel.LE, IntVar(v), IntConst(1))]
    soft = [(Atom(Rel.EQ, IntVar(v), IntConst(rng.randint(-2, 2))), 1) for v in ("i", "j") if rng.random() < 0.5]
    return SolverRequest(ARRAY_DECLS, hard, soft)


def test_array_answers_match_pinned_digest():
    """The (status, model) answers of the brute-force engine on seeded
    array and function queries equal the pinned ones.  Seeds 9, 26 and 50
    are left out: their scans run into the check budget (see
    `test_array_scans_stop_at_the_check_budget`)."""
    digest = hashlib.sha256()
    statuses = set()
    client = LocalSolverClient()
    for s in range(60):
        if s in (9, 26, 50):
            continue
        req = _array_query(s)
        v = client.max_solve(req) if req.soft else client.solve(req)
        statuses.add(v.kind)
        digest.update(repr((v.kind.value, None if v.model is None else canonical_assignment(v.model))).encode())
    assert statuses == {VerdictKind.SAT, VerdictKind.UNSAT, VerdictKind.UNKNOWN}
    assert digest.hexdigest() == "73fcebdd62d83f0f9ec2692dc9325f26bf30f0d6cbbf662082050866dc7dbc90"


@pytest.mark.parametrize("s", [9, 26, 50])
def test_array_scans_stop_at_the_check_budget(s):
    """Queries whose soft constraints cannot all hold answer the best model
    found within the check budget (unbudgeted, seed 9 ran for minutes)."""
    req = _array_query(s)
    start = time.monotonic()
    v = LocalSolverClient().max_solve(req) if req.soft else LocalSolverClient().solve(req)
    assert time.monotonic() - start < 30
    assert v.kind == VerdictKind.SAT
    assert all(eval_formula(f, v.model) for f in req.hard)


@pytest.fixture(scope="module")
def process_client():
    client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
    yield client
    client.close()


class TestProcessClient:
    def test_sat_with_model(self, process_client):
        p = parse_problem("(declare-const x Int)(assert (and (>= x 2) (<= x 4)))")
        v = process_client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.is_sat and 2 <= v.model.ints["x"] <= 4

    def test_unsat(self, process_client):
        p = parse_problem("(declare-const x Int)(assert (>= x 1))(assert (<= x 0))")
        v = process_client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.UNSAT

    def test_max_solve_soft_honored(self, process_client):
        p = parse_problem("(declare-const x Int)(assert (and (>= x 0) (<= x 10)))")
        req = SolverRequest(p.declarations, [p.assertion], [(Atom(Rel.EQ, IntVar("x"), IntConst(7)), 1)])
        v = process_client.max_solve(req)
        assert v.is_sat and v.model.ints["x"] == 7 and not v.degraded

    def test_queries_are_scoped(self, process_client):
        # constraints from one query must not leak into the next
        p1 = parse_problem("(declare-const x Int)(assert (= x 3))")
        v1 = process_client.solve(SolverRequest(p1.declarations, [p1.assertion]))
        assert v1.is_sat and v1.model.ints["x"] == 3
        p2 = parse_problem("(declare-const x Int)(assert (= x 8))")
        v2 = process_client.solve(SolverRequest(p2.declarations, [p2.assertion]))
        assert v2.is_sat and v2.model.ints["x"] == 8

    def test_arrays_round_trip(self, process_client):
        p = parse_problem(
            "(declare-const a (Array Int Int))(declare-const i Int)"
            "(assert (and (>= i 0) (<= i 1) (= (select a i) 2)))"
        )
        v = process_client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.is_sat
        assert eval_formula(p.assertion, v.model)

    def test_quoted_symbols_round_trip(self, process_client):
        # the model names each symbol as the query declared it, |...| included
        p = parse_problem(
            "(declare-const |x y| Int)(declare-const |p q| Bool)(declare-const |a b| (Array Int Int))"
            "(declare-fun |f g| (Int) Int)"
            "(assert (and (= |x y| (- 4)) |p q| (= (select |a b| |x y|) (- 2)) (= (|f g| |x y|) 5)))"
        )
        v = process_client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.is_sat, v.reason
        assert v.model.ints == {"x y": -4} and v.model.bools == {"p q": True}
        assert v.model.funcs["a b"].apply(-4) == -2 and v.model.funcs["f g"].apply(-4) == 5
        assert eval_formula(p.assertion, v.model)

    def test_timeout_reported_as_error(self):
        client = ProcessSolverClient(f"{sys.executable} -c 'import time; time.sleep(60)'", timeout=1.0)
        p = parse_problem("(declare-const x Int)(assert (= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.ERROR
        client.close()

    def test_replies_written_a_byte_at_a_time_are_read_whole(self, tmp_path):
        # each byte arrives on its own: "sat" must not be read as "s", nor
        # a model before its closing paren
        stub = tmp_path / "bytewise.py"
        stub.write_text(
            "import sys, time\n"
            "def say(text):\n"
            "    for ch in text + '\\n':\n"
            "        sys.stdout.write(ch)\n"
            "        sys.stdout.flush()\n"
            "        time.sleep(0.001)\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line == '(check-sat)':\n"
            "        say('sat')\n"
            "    elif line == '(get-model)':\n"
            "        say('(\\n  (define-fun x () Int 5)\\n  (define-fun |y z| () Int (- 12))\\n)')\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=30.0)
        p = parse_problem("(declare-const x Int)(declare-const |y z| Int)(assert (> x 2))")
        for _ in range(2):
            v = client.solve(SolverRequest(p.declarations, [p.assertion]))
            assert v.is_sat and v.model.ints == {"x": 5, "y z": -12}, v.reason
        client.close()

    def test_a_queued_reply_is_read_alone_and_the_end_of_output_kept(self):
        # once the child has exited, its whole output arrives in one read:
        # the first reply is read without the one after it, which is the
        # next reply, and the end of output is still reported after that
        script = "print('(\\n  (define-fun x () Int 5)\\n)\\n(error \"next\")')"
        handle = _ProcessHandle([sys.executable, "-c", script])
        handle.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        assert solver_mod._frag(handle.reply(deadline)) == "((define-fun x () Int 5))"
        assert solver_mod._frag(handle.reply(deadline)) == '(error "next")'
        with pytest.raises(EOFError, match=r"closed its output \(exit status 0\)"):
            handle.reply(time.monotonic() + 5)
        handle.kill()

    def test_a_solver_that_exits_names_its_exit_status(self):
        client = ProcessSolverClient(f"{sys.executable} -c 'import sys; sys.exit(3)'", timeout=10.0)
        p = parse_problem("(declare-const x Int)(assert (= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.ERROR and "exit status 3" in v.reason, v.reason
        client.close()

    def test_a_child_that_closes_its_output_is_not_waited_for_past_the_deadline(self):
        handle = _ProcessHandle([sys.executable, "-c", "import os, time; os.close(1); time.sleep(30)"])
        select.select([handle.proc.stdout], [], [], 30)  # the end of output has arrived
        start = time.monotonic()
        with pytest.raises(EOFError, match=r"closed its output \(still running\)"):
            handle.reply(start + 0.2)
        assert time.monotonic() - start < 0.8
        handle.kill()

    def test_the_child_is_reaped_and_its_pipes_closed(self):
        # on a reset (after a failed query) and on close, and a second wait
        # or close of the process stays harmless
        p = parse_problem("(declare-const x Int)(assert (= x 0))")
        client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
        for stop in (client._reset, client.close):
            assert client.solve(SolverRequest(p.declarations, [p.assertion])).is_sat
            proc = client._handle.proc
            stop()
            assert proc.returncode is not None and proc.stdin.closed and proc.stdout.closed
            proc.wait(timeout=1)
            proc.stdin.close()
        assert client._handle is None

    def test_a_child_that_stopped_reading_is_reaped_without_raising(self):
        # the failed write leaves its bytes buffered, to be flushed on close
        handle = _ProcessHandle([sys.executable, "-c", "import os, time; os.close(0); print(1, flush=True); time.sleep(30)"])
        assert handle.reply(time.monotonic() + 30).text == "1"
        with pytest.raises(BrokenPipeError):
            handle.send("(check-sat)")
        handle.kill()
        assert handle.proc.returncode is not None and handle.proc.stdin.closed and handle.proc.stdout.closed

    def test_broken_command_is_error_not_crash(self):
        client = ProcessSolverClient(f"{sys.executable} -c 'pass'", timeout=2.0)
        p = parse_problem("(declare-const x Int)(assert (= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.ERROR
        client.close()

    def test_soft_rejection_degrades(self, tmp_path):
        # a stub that answers sat but errors on assert-soft, then serves a model
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line.startswith('(assert-soft'):\n"
            "        print('(error \"unknown command assert-soft\")', flush=True)\n"
            "    elif line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print('((define-fun x () Int 5))', flush=True)\n"
            "    elif line == '(exit)':\n"
            "        break\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        p = parse_problem("(declare-const x Int)(assert (>= x 0))")
        req = SolverRequest(p.declarations, [p.assertion], [(Atom(Rel.EQ, IntVar("x"), IntConst(9)), 1)])
        v = client.max_solve(req)
        assert v.is_sat and v.degraded and v.model.ints["x"] == 5
        client.close()

    def test_an_unsupported_answer_to_assert_soft_degrades(self, tmp_path, sent):
        # SMT-LIB has a solver answer `unsupported` to a command it does not
        # take; the random run's first query learns it, and no probe is sent
        stub = tmp_path / "unsupported.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line.startswith('(assert-soft'):\n"
            "        print('unsupported', flush=True)\n"
            "    elif line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print('((define-fun x () Int 5))', flush=True)\n"
            "    elif line == '(exit)':\n"
            "        break\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        cfg = SamplerConfig(strategy="random", max_samples=1)
        stats = sample_formula(parse_problem("(declare-const x Int)(assert (>= x 0))"), cfg, client, random.Random(0))
        client.close()
        assert stats.unique_samples == 1 and stats.solver_calls == 1 and stats.maxsmt_degradations == 1
        assert len(_lines(sent, "(assert-soft ")) == 1 and len(_lines(sent, "(check-sat)")) == 2

    def test_a_model_value_in_other_digits_is_error(self, tmp_path):
        # "²" is a digit to `str.isdigit`, not a numeral
        stub = tmp_path / "superscript.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print('((define-fun x () Int \u00b2))', flush=True)\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        p = parse_problem("(declare-const x Int)(assert (>= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        client.close()
        assert v.kind == VerdictKind.ERROR and v.reason == "not an integer constant: \u00b2"

    @needs_digit_limit
    def test_a_model_value_over_the_digit_limit_is_error(self, tmp_path):
        # Python converts at most 4300 digits by default: the reply is
        # malformed, not a crash, and the process is reset
        stub = tmp_path / "huge.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print('((define-fun x () Int (- ' + '7' * 5000 + ')))', flush=True)\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        p = parse_problem("(declare-const x Int)(assert (<= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.ERROR
        assert v.reason == f"numeral of 5000 digits exceeds the limit of {sys.get_int_max_str_digits()}"
        assert client._handle is None
        client.close()

    def test_error_with_backslash_before_quote_is_read_at_once(self, tmp_path):
        # the message ends in a backslash; a quote is escaped only by "" in
        # SMT-LIB 2.6, so the answer is one complete line
        stub = tmp_path / "backslash.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(check-sat)':\n"
            "        print('(error \"C:\\\\\")', flush=True)\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=10.0)
        p = parse_problem("(declare-const x Int)(assert (= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        client.close()
        assert v.kind == VerdictKind.ERROR
        assert v.reason == '(error "C:\\")'

    def test_model_reply_starting_with_a_stray_paren_is_error(self, tmp_path):
        # the reply is malformed: the verdict says so and the process is
        # reset, and the syntax error does not escape as if from the input
        stub = tmp_path / "stray.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print(')\\n((define-fun x () Int 5))', flush=True)\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        p = parse_problem("(declare-const x Int)(assert (>= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.ERROR
        assert v.reason == "unreadable solver reply: 2:0: unbalanced ')'"  # line 1 is "sat"
        assert client._handle is None
        client.close()

    def test_malformed_model_reply_is_error(self, tmp_path):
        # a well-formed s-expression that is not a model: the verdict says
        # so and the process is reset, and no parse error escapes
        stub = tmp_path / "malformed.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print('((define-fun f (x) Int 0))', flush=True)\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        p = parse_problem("(declare-fun f (Int) Int)(assert (>= (f 0) 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.ERROR
        assert v.reason == "unexpected parameter list: (x)"
        assert client._handle is None
        client.close()

    def test_lying_solver_caught_by_recheck(self, tmp_path):
        # answers sat with a model violating the hard constraint
        stub = tmp_path / "liar.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print('((define-fun x () Int (- 5)))', flush=True)\n"
            "    elif line == '(exit)':\n"
            "        break\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        p = parse_problem("(declare-const x Int)(assert (>= x 0))")
        v = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert v.kind == VerdictKind.ERROR and "hard constraint" in v.reason
        client.close()


    @pytest.mark.parametrize(
        "widen",
        [(0, 0, 0, 0), (1, None, 0, 2)],  # pinned; x's box open above and y's widened
        ids=["pinned", "wide"],
    )
    def test_a_solver_answering_inside_a_blocked_box_is_caught_by_recheck(self, tmp_path, widen):
        # answers every query with the same point: on the second query, the
        # point its first answer gave, inside the box the negation blocks
        stub = tmp_path / "repeater.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    line = line.strip()\n"
            "    if line == '(check-sat)':\n"
            "        print('sat', flush=True)\n"
            "    elif line == '(get-model)':\n"
            "        print('((define-fun x () Int 3) (define-fun y () Int 4))', flush=True)\n"
            "    elif line == '(exit)':\n"
            "        break\n"
        )
        client = ProcessSolverClient(f"{sys.executable} {stub}", timeout=5.0)
        p = parse_problem("(declare-const x Int)(declare-const y Int)(assert (and (<= 0 x 9) (<= 0 y 9)))")
        first = client.solve(SolverRequest(p.declarations, [p.assertion]))
        assert first.is_sat and first.model.ints == {"x": 3, "y": 4}
        x_lo, x_hi, y_lo, y_hi = widen
        box = IntervalMap({
            IntVar("x"): Interval(3 - x_lo, None if x_hi is None else 3 + x_hi),
            IntVar("y"): Interval(4 - y_lo, 4 + y_hi),
        })
        negation = neg_to_formula(box)
        v = client.solve(SolverRequest(p.declarations, [p.assertion, negation]))
        client.close()
        assert v.kind == VerdictKind.ERROR and "hard constraint" in v.reason
        assert v.reason.endswith(print_formula(negation))


@pytest.fixture
def sent(monkeypatch):
    """The commands each process client of the test sends, one list entry
    per write."""
    writes: list[str] = []
    send = _ProcessHandle.send

    def recording(self, text):
        writes.append(text)
        send(self, text)

    monkeypatch.setattr(_ProcessHandle, "send", recording)
    return writes


def _lines(writes: list[str], prefix: str) -> list[str]:
    return [line for text in writes for line in text.split("\n") if line.startswith(prefix)]


POINTS = "(declare-const x Int)(declare-const y Int)(assert (and (= (+ x y) 10) (<= 0 x) (<= x 1000)))"


class TestBaseScope:
    def test_a_blocking_run_sends_each_declaration_and_hard_formula_once(self, sent):
        # every box is a point, so each of the 20 epochs adds one negation
        client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
        cfg = SamplerConfig(strategy="blocking", max_samples=20, samples_per_round=40, rounds_per_epoch=2)
        stats = sample_formula(parse_problem(POINTS), cfg, client, random.Random(7))
        client.close()
        assert stats.unique_samples == 20 and stats.solver_calls == 20 and stats.blocking_resets == 0
        asserts = _lines(sent, "(assert ")
        assert len(asserts) == 20 and len(set(asserts)) == 20  # the formula, then one negation per epoch
        assert sorted(_lines(sent, "(declare-")) == ["(declare-fun x () Int)", "(declare-fun y () Int)"]
        assert _lines(sent, "(pop 1)") == ["(pop 1)"] * 20  # only the query scopes are popped

    def test_a_reset_history_rebuilds_the_base(self, sent):
        # the negation of the only model makes the query unsat; once the
        # history is cleared, the base must no longer hold that negation
        p = parse_problem("(declare-const x Int)(assert (and (<= 0 x) (<= x 0)))")
        history = BlockingHistory(p)
        history.add(IntervalMap({IntVar("x"): Interval(0, 0)}))
        client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
        stats = RunStats()
        seed, was_reset = get_seed_blocking(p.assertion, client, history, stats)
        client.close()
        assert seed.ints["x"] == 0 and was_reset and stats.solver_calls == 2
        rebuilt = sent[-2]  # before the exit
        assert rebuilt.startswith("(pop 1)\n(push 1)\n(declare-fun x () Int)")
        assert len(_lines([rebuilt], "(assert ")) == 1

    def test_a_killed_child_is_restarted_and_the_base_sent_again(self, sent):
        p = parse_problem("(declare-const x Int)(assert (and (>= x 2) (<= x 4)))")
        req = SolverRequest(p.declarations, [p.assertion])
        client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
        assert client.solve(req).is_sat
        assert client.solve(req).is_sat  # the base holds it all: nothing is sent again
        assert len(_lines(sent, "(assert ")) == 1
        client._handle.proc.kill()
        client._handle.proc.wait()
        v = client.solve(req)
        client.close()
        assert v.is_sat and 2 <= v.model.ints["x"] <= 4, v.reason
        assert len(_lines(sent, "(assert ")) == 2 and len(_lines(sent, "(declare-")) == 2

    def test_soft_constraints_are_honored_after_an_unsat_query(self):
        # the first soft query follows an unsat one in the same child
        client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
        p = parse_problem("(declare-const x Int)(assert (>= x 1))(assert (<= x 0))")
        assert client.solve(SolverRequest(p.declarations, [p.assertion])).kind == VerdictKind.UNSAT
        p = parse_problem("(declare-const x Int)(assert (and (>= x 0) (<= x 10)))")
        soft = [(Atom(Rel.EQ, IntVar("x"), IntConst(7)), 1)]
        v = client.max_solve(SolverRequest(p.declarations, [p.assertion], soft))
        client.close()
        assert v.is_sat and v.model.ints["x"] == 7 and not v.degraded


# Answers each check-sat in turn with the next verdict of a fixed list, and
# each get-model with a model whose x is the number of its query, or with an
# error after any answer but sat.
ANSWERING_IN_TURN = """\
import sys

answers = ["sat", "unsat", "sat", "unknown", "sat", '(error "no verdict")']
asked, answer = 0, None
for line in sys.stdin:
    line = line.strip()
    if line == "(check-sat)":
        answer = answers[asked % len(answers)]
        asked += 1
        print(answer, flush=True)
    elif line == "(get-model)" and answer == "sat":
        print(f"((define-fun x () Int {asked}))", flush=True)
    elif line == "(get-model)":
        print('(error "model is not available")', flush=True)
"""

X_NONNEGATIVE = SolverRequest([D("x")], [Atom(Rel.GE, IntVar("x"), IntConst(0))])


@pytest.fixture
def in_turn(tmp_path):
    script = tmp_path / "in_turn.py"
    script.write_text(ANSWERING_IN_TURN)
    client = ProcessSolverClient(f"{sys.executable} {script}", timeout=30)
    yield client
    client.close()


def _outcome(verdict) -> tuple:
    return verdict.kind, verdict.model.ints["x"] if verdict.model else None


class TestOneRoundTrip:
    @pytest.mark.parametrize("ahead", [False, True], ids=["asked", "sent-ahead"])
    def test_each_reply_belongs_to_its_own_query(self, in_turn, ahead):
        # the get-model reply after unsat or unknown is read with its own
        # query, never as the next answer; the error answer resets the child,
        # whose turns then start again
        outcomes = []
        for _ in range(7):
            if ahead:
                in_turn.prefetch(X_NONNEGATIVE)
            outcomes.append(_outcome(in_turn.solve(X_NONNEGATIVE)))
        assert outcomes == [
            (VerdictKind.SAT, 1),
            (VerdictKind.UNSAT, None),
            (VerdictKind.SAT, 3),
            (VerdictKind.UNKNOWN, None),
            (VerdictKind.SAT, 5),
            (VerdictKind.ERROR, None),
            (VerdictKind.SAT, 1),
        ]

    def test_a_query_sent_ahead_and_not_asked_is_read_and_dropped(self, in_turn, sent):
        other = SolverRequest([D("x")], [*X_NONNEGATIVE.hard, Atom(Rel.LE, IntVar("x"), IntConst(100))])
        in_turn.prefetch(X_NONNEGATIVE)  # query 1: sat
        assert _outcome(in_turn.solve(other)) == (VerdictKind.UNSAT, None)  # query 2
        in_turn.prefetch(X_NONNEGATIVE)  # query 3: sat
        in_turn.prefetch(other)  # a query is in flight: nothing is sent
        assert _outcome(in_turn.solve(X_NONNEGATIVE)) == (VerdictKind.SAT, 3)
        assert len(_lines(sent, "(check-sat)")) == 3

    def test_a_query_asked_after_another_was_sent_ahead_gets_its_own_answer(self):
        x_is = {k: parse_problem(f"(declare-const x Int)(assert (= x {k}))") for k in (3, 8)}
        three, eight = (SolverRequest(p.declarations, [p.assertion]) for p in x_is.values())
        client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
        client.prefetch(three)
        answers = [client.solve(eight)]
        client.prefetch(eight)
        answers += [client.solve(eight), client.solve(three)]
        client.close()
        assert [v.model.ints["x"] for v in answers] == [8, 8, 3]

    def test_each_query_is_one_write(self, sent):
        p = parse_problem("(declare-const x Int)(assert (and (<= 0 x) (<= x 3)))")
        sat = SolverRequest(p.declarations, [p.assertion])
        unsat = SolverRequest(p.declarations, [p.assertion, Atom(Rel.GT, IntVar("x"), IntConst(3))])
        soft = SolverRequest(p.declarations, [p.assertion], [(Atom(Rel.EQ, IntVar("x"), IntConst(2)), 1)])
        client = ProcessSolverClient(MINISOLVER_CMD, timeout=60)
        kinds = [client.solve(sat).kind, client.solve(unsat).kind, client.max_solve(soft).kind]
        client.prefetch(unsat)
        kinds.append(client.solve(unsat).kind)
        client.close()
        assert kinds == [VerdictKind.SAT, VerdictKind.UNSAT, VerdictKind.SAT, VerdictKind.UNSAT]
        queries = sent[1:-1]  # after the start, before the exit
        assert len(queries) == 4
        assert all(q.endswith("(check-sat)\n(get-model)\n(pop 1)") and q.count("(check-sat)") == 1 for q in queries)

    def test_a_failed_send_ahead_is_the_verdict_of_its_query(self):
        client = ProcessSolverClient(f"{sys.executable} -c 'import os, time; os.close(0); time.sleep(30)'", timeout=5)
        client._ensure()
        time.sleep(0.5)  # until the child has closed its input
        client.prefetch(X_NONNEGATIVE)
        verdict = client.solve(X_NONNEGATIVE)
        client.close()
        assert verdict.kind == VerdictKind.ERROR and "Broken pipe" in verdict.reason, verdict.reason


def _recording(client_class):
    """`client_class` logging each query it is asked and each it is sent ahead."""

    class Recording(client_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.log = []

        def prefetch(self, req):
            self.log.append(("ahead", req))
            super().prefetch(req)

        def solve(self, req):
            verdict = super().solve(req)
            self.log.append(("solve", (req.declarations, req.hard, req.soft), verdict.kind, verdict.model))
            return verdict

    return Recording


CHAIN = "(declare-const x Int)(declare-const y Int)(assert (and (<= 0 y) (<= y x) (<= x 6)))"


@pytest.mark.parametrize(
    "problem_text, per_round, epochs, answers",
    [
        (None, 20, 60, {VerdictKind.SAT, VerdictKind.UNSAT}),  # resets after unsat answers
        (None, 40, None, {VerdictKind.SAT, VerdictKind.UNSAT}),  # ends "exhausted" on an unsat answer
        (CHAIN, 20, 30, {VerdictKind.SAT, VerdictKind.UNKNOWN}),  # resets after unknown answers
    ],
    ids=["small_boxes-resets", "small_boxes-exhausted", "chain-unknown"],
)
def test_a_blocking_run_over_the_pipe_asks_what_it_asks_in_process(data_dir, problem_text, per_round, epochs, answers):
    # the same queries in the same order, with the same answers, samples
    # and stats; a run stopped by Ctrl-C after `epochs` epochs leaves a
    # query in flight over the pipe
    problem = parse_problem(problem_text or (data_dir / "small_boxes.smt2").read_text())
    cfg = SamplerConfig(strategy="blocking", samples_per_round=per_round, rounds_per_epoch=2)
    runs = []
    for client in (_recording(ProcessSolverClient)(MINISOLVER_CMD, timeout=60), _recording(LocalSolverClient)()):
        samples, ended = [], []

        def on_epoch(epoch):
            ended.append(epoch)
            if len(ended) == epochs:
                raise KeyboardInterrupt

        stats = sample_formula(problem, cfg, client, random.Random(41), on_sample=samples.append, on_epoch=on_epoch)
        client.close()
        runs.append((client.log, samples, dataclasses.replace(stats, wall_time={})))
    (pipe_log, *pipe_run), (local_log, *local_run) = runs
    asked = [event for event in pipe_log if event[0] == "solve"]
    assert asked == [event for event in local_log if event[0] == "solve"] and pipe_run == local_run
    assert {kind for _, _, kind, _ in asked} == answers
    assert pipe_run[1].stop_reason == ("exhausted" if epochs is None else "interrupted")
    for event, after in zip(pipe_log, pipe_log[1:]):  # each query sent ahead is the next one asked
        if event[0] == "ahead":
            assert after[:2] == ("solve", (event[1].declarations, event[1].hard, event[1].soft))
    assert (pipe_log[-1][0] == "ahead") == (epochs is not None)


def test_a_query_is_cut_off_at_the_runs_deadline():
    # the solver never answers; the client's own timeout is a minute
    client = ProcessSolverClient(f"{sys.executable} -c 'import time; time.sleep(60)'", timeout=60.0)
    cfg = SamplerConfig(strategy="blocking", total_time_limit=1)
    start = time.monotonic()
    stats = sample_formula(parse_problem(POINTS), cfg, client)
    client.close()
    assert time.monotonic() - start < 5
    assert stats.stop_reason == "total time limit" and stats.unique_samples == 0
