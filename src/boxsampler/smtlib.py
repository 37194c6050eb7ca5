"""SMT-LIB v2 reader and writer for the supported fragment.

One reader, :func:`read_sexpr`, reads every s-expression of the package:
input files (:func:`parse_problem`) and both ends of the solver pipe, whose
text :class:`StreamReader` reads as it arrives: the commands the
`minisolver` reads and the replies the `solver` client reads.  It follows
the lexical rules of SMT-LIB 2.6 (``""`` is a quote inside a string,
``|...|`` a quoted symbol), says when a text holds no complete s-expression
yet, and gives each node the text it was read from and the offset it starts
at, from which an error's line and column are derived.

One reader of commands, :meth:`Parser.command`, serves files and the pipe:
:func:`parse_problem` gives it every command of a file, and the
`minisolver` session every command that it does not answer itself (push,
pop, reset, assert-soft and the queries), so both accept and reject a
command alike.  It handles set-logic, declare-fun / declare-const (Int,
Bool, (Array Int Int), unary Int -> Int functions), zero-parameter
define-fun (inlined, its body checked against its sort), assert, and
passes over set-info / set-option / check-sat / get-model / get-value /
echo / exit.  let-bindings are inlined during parsing and named-assertion
attributes are stripped, so downstream modules never deal with
substitution.

Each operator is stated once, in the table ``_OPERATORS``: its operand
sorts, its arity and its builder.  One routine, ``Parser._apply``, checks
every application against its entry in one order: the number of operands,
then each operand parsed, then the sort of each, left to right, and raises
each arity and sort error at the application.  The builders
lower the other Boolean operators to not/and/or as they are read: ``(=> a
b)`` is ``(or (not a) b)``, ``xor`` and two-Bool ``distinct`` are ``(or
(and a (not b)) (and (not a) b))``, Bool ``=`` is ``(or (and a b) (and (not
a) (not b)))``, Int ``distinct`` the pairwise disequalities, and Boolean ite
``(or (and c a) (and (not c) b))``.  One printer, :func:`print_formula`
(also bound as :func:`print_term`), writes any term or formula in that
lowered form: it walks :func:`.terms.children`, with each node's head from
a map of node types.

A unary Int -> Int function is an array that SMT-LIB spells differently:
its declaration has sort ARRAY and ``is_function``, and ``(f x)`` is read
as ``Select(ArrayVar("f", function=True), x)`` and printed back as ``(f x)``.
"""

from __future__ import annotations

import functools
import re
import sys
from collections.abc import Callable

from .errors import SmtSyntaxError, UnsupportedFeature
from .terms import (
    FORMULA_TYPES,
    Add,
    And,
    ArrayVar,
    Atom,
    BoolConst,
    BoolVar,
    Formula,
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
    TERM_TYPES,
    Term,
    _Record,
    children,
    conj,
    disj,
)

SUPPORTED_LOGICS = {"QF_LIA", "QF_NIA", "QF_ALIA", "QF_AUFLIA", "QF_UFLIA"}


class Declaration(_Record):
    __slots__ = ("name", "sort", "is_function")

    def __init__(self, name: str, sort: Sort, is_function: bool = False):
        self.name = name
        self.sort = sort
        self.is_function = is_function  # a unary Int -> Int function, of sort ARRAY


class ParsedProblem(_Record):
    __slots__ = ("logic", "declarations", "assertion")

    def __init__(self, logic: str | None, declarations: list[Declaration], assertion: Formula):
        self.logic = logic
        self.declarations = declarations
        self.assertion = assertion


# ---------------------------------------------------------------------------
# Reader

# One token, after any whitespace and comments, as SMT-LIB 2.6 spells it:
# group 1 is "(", group 2 is ")", group 3 a string (in which "" is a quote,
# so no quote may follow it), a quoted symbol or a bare atom, and group 4
# the start of a string or quoted symbol that the text does not close.  At
# the end of the text no group matches.
_TOKEN = re.compile(
    r'(?:[ \t\r\n]+|;[^\n]*)*'
    r'(?:(\()|(\))|("[^"]*(?:""[^"]*)*"(?!")|\|[^|]*\||[^ \t\r\n();|"]+)|(["|]))?'
)


class _SExpr:
    """An atom, whose `text` is its token, or a list of `items` (its `text`
    is "("), which starts at `offset` in `source`, the text it was read from."""

    __slots__ = ("items", "text", "source", "offset")

    def __init__(self, items, text: str, source: str, offset: int):
        self.items = items  # None for atoms
        self.text = text
        self.source = source
        self.offset = offset

    @property
    def is_atom(self) -> bool:
        return self.items is None

    def error(self, message: str, kind=SmtSyntaxError) -> SmtSyntaxError | UnsupportedFeature:
        """A `kind` error at this node's line and column."""
        return kind(message, self.source, self.offset)


def read_sexpr(text: str, pos: int = 0, final: bool = False) -> tuple[_SExpr, int] | None:
    """The first complete s-expression at or after `pos` in `text` and the
    offset just past it, or None while the text ends before one or inside
    it.  With `final` the text is all there is, and ending inside one is an
    error.  A ")" closing no list is an error at the ")", to be read past."""
    opens: list[_SExpr] = []
    for token in _TOKEN.finditer(text, pos):
        kind = token.lastindex
        if kind == 1:
            opens.append(_SExpr([], "(", text, token.start(1)))
            continue
        if kind == 3:
            node = _SExpr(None, token[3], text, token.start(3))
        elif kind == 2:
            if not opens:
                raise SmtSyntaxError("unbalanced ')'", text, token.start(2))
            node = opens.pop()
        elif final and kind == 4:
            what = "string literal" if token[4] == '"' else "quoted symbol"
            raise SmtSyntaxError(f"unterminated {what}", text, token.start(4))
        elif final and opens:
            raise SmtSyntaxError("unbalanced '('", text, opens[-1].offset)
        else:
            return None
        if not opens:
            return node, token.end()
        opens[-1].items.append(node)


def read_sexprs(text: str) -> list[_SExpr]:
    """Every s-expression of `text`."""
    exprs, pos = [], 0
    while (read := read_sexpr(text, pos, final=True)) is not None:
        node, pos = read
        exprs.append(node)
    return exprs


class StreamReader:
    """Reads the s-expressions of a text that arrives in pieces, such as the
    commands of a pipe.  It keeps what has arrived from the start of the
    line where reading stands (`text`, read on from `pos`) and that line's
    number in the stream (`line`), so that :meth:`locate` can place an error
    in the stream without keeping or counting the text read before it."""

    def __init__(self):
        self.text = ""
        self.pos = 0
        self.line = 1
        self.base_line = 1  # `line` when the last s-expression yielded was read

    def feed(self, piece: str):
        """Append `piece`, and yield each s-expression now complete, in order.
        A top-level atom that reaches the end of the text is not complete
        yet: the next piece may go on with it.  A ")" that closes no list
        yields its `SmtSyntaxError` instead, and reading goes on after it."""
        self.text += piece
        while True:
            try:
                read = read_sexpr(self.text, self.pos)
            except SmtSyntaxError as exc:
                self._advance(exc.offset + 1)
                yield exc
                continue
            if read is None or (read[0].is_atom and read[1] == len(self.text)):
                return
            node, end = read
            self._advance(end)
            yield node

    def _advance(self, end: int):
        """Read on from `end`, keeping the text from the start of its line;
        `text[:pos]` holds no newline."""
        self.base_line = self.line
        start = self.text.rfind("\n", self.pos, end) + 1
        self.line += self.text.count("\n", 0, start)
        self.text, self.pos = self.text[start:], end - start

    def locate(self, exc: SmtSyntaxError | UnsupportedFeature) -> str:
        """The message of `exc`, an error at what :meth:`feed` yielded last
        (or that error itself), with its line counted in the stream."""
        return f"{exc.line + self.base_line - 1}:{exc.col}: {exc.message}"


# ---------------------------------------------------------------------------
# Problem parsing

# The sorts by SMT-LIB name; the node of a symbol declared of each sort; the
# sort of each node type, Bool for a formula and for a term as `sort_of`
# gives; and how a sort error names each sort.
_SORT_NAMES = {"Int": Sort.INT, "Bool": Sort.BOOL, "(Array Int Int)": Sort.ARRAY}
_VARIABLES = {Sort.INT: IntVar, Sort.BOOL: BoolVar, Sort.ARRAY: ArrayVar}
_SORT_OF = {**dict.fromkeys(TERM_TYPES, Sort.INT), ArrayVar: Sort.ARRAY, Store: Sort.ARRAY}
_SORT_OF.update(dict.fromkeys(FORMULA_TYPES, Sort.BOOL))
_EXPECTED = {Sort.INT: "an Int", Sort.BOOL: "a Bool", Sort.ARRAY: "an (Array Int Int)"}


def _parse_sort(s: _SExpr) -> Sort:
    text = s.text if s.is_atom else "(" + " ".join(p.text if p.is_atom else "(...)" for p in s.items) + ")"
    if text not in _SORT_NAMES:
        raise s.error(f"unsupported sort {text!r}" if s.is_atom else f"unsupported sort {text}", UnsupportedFeature)
    return _SORT_NAMES[text]


def _sym(name: str) -> str:
    if name.startswith("|") and name.endswith("|"):
        return name[1:-1]
    return name


class Parser:
    """Turns commands into declarations and assertions.  Errors give the
    line and column of the offending node in the text it was read from."""

    def __init__(self):
        self.logic: str | None = None
        self.decls: dict[str, Declaration] = {}
        self.macros: dict[str, Term | Formula] = {}
        self.assertions: list[Formula] = []

    # -- commands ---------------------------------------------------------

    def run(self, text: str) -> ParsedProblem:
        for sexpr in read_sexprs(text):
            self.command(sexpr)
        return ParsedProblem(self.logic, list(self.decls.values()), conj(self.assertions))

    def command(self, s: _SExpr) -> None:
        if s.is_atom or not s.items or not s.items[0].is_atom:
            raise s.error("expected a command")
        head = s.items[0].text
        args = s.items[1:]
        if head in ("set-info", "set-option", "check-sat", "exit", "get-model", "get-value", "echo"):
            pass
        elif head == "set-logic":
            if len(args) != 1 or not args[0].is_atom:
                raise s.error("set-logic expects one symbol")
            if args[0].text not in SUPPORTED_LOGICS:
                raise s.error(f"unsupported logic {args[0].text}", UnsupportedFeature)
            self.logic = args[0].text
        elif head == "declare-const":
            if len(args) != 2 or not args[0].is_atom:
                raise s.error("declare-const expects name and sort")
            name = self._new_name(args[0])
            self.decls[name] = Declaration(name, _parse_sort(args[1]))
        elif head == "declare-fun":
            if len(args) != 3 or not args[0].is_atom or args[1].is_atom:
                raise s.error("declare-fun expects name, params, sort")
            name = self._new_name(args[0])
            if not args[1].items:
                self.decls[name] = Declaration(name, _parse_sort(args[2]))
            elif [*map(_parse_sort, args[1].items), _parse_sort(args[2])] == [Sort.INT, Sort.INT]:
                self.decls[name] = Declaration(name, Sort.ARRAY, is_function=True)
            else:
                raise args[1].error("only unary Int -> Int uninterpreted functions are supported", UnsupportedFeature)
        elif head == "define-fun":
            if len(args) != 4 or not args[0].is_atom or args[1].is_atom:
                raise s.error("define-fun expects name, params, sort, body")
            name = self._new_name(args[0])
            if args[1].items:
                raise s.error("define-fun with parameters", UnsupportedFeature)
            body = self._expr(args[3], {})
            _check(args[3], _parse_sort(args[2]), body)
            self.macros[name] = body
        elif head == "assert":
            if len(args) != 1:
                raise s.error("assert expects one formula")
            self.assertions.append(self.formula(s, args[0]))
        elif head in ("push", "pop", "declare-sort", "define-sort", "declare-datatypes", "reset"):
            raise s.error(f"command {head} is outside the supported subset", UnsupportedFeature)
        else:
            raise s.error(f"unknown command {head}", UnsupportedFeature)

    def formula(self, command: _SExpr, s: _SExpr) -> Formula:
        """`s`, the formula that `command` asserts, which must be a Bool."""
        f = self._expr(s, {})
        if _SORT_OF[f.__class__] is not Sort.BOOL:
            raise command.error("assert expects a Bool expression")
        return f

    def _new_name(self, s: _SExpr) -> str:
        """The symbol of `s`, which names nothing declared or defined yet."""
        name = _sym(s.text)
        if name in self.decls or name in self.macros:
            raise s.error(f"symbol {name!r} is already declared")
        return name

    # -- expressions ------------------------------------------------------

    def _expr(self, s: _SExpr, env: dict[str, Term | Formula]):
        if s.is_atom:
            return self._atom_expr(s, env)
        items = s.items
        if not items:
            raise s.error("empty application")
        if not items[0].is_atom:
            raise s.error("expected an operator symbol")
        head = items[0].text
        args = items[1:]
        op = _OPERATORS.get(head)
        if op is not None:
            if head == "-" and len(args) == 1:
                op = _NEGATE
            return self._apply(s, head, op, args, env)
        if head == "let":
            return self._let(s, env)
        if head == "!":
            if not args:
                raise s.error("empty attribute expression")
            return self._expr(args[0], env)  # attributes such as :named are stripped
        if head in ("div", "mod", "abs", "rem", "/", "to_real", "to_int"):
            raise s.error(f"operator {head} is outside the supported fragment", UnsupportedFeature)
        if head in ("forall", "exists"):
            raise s.error("quantifiers are not supported", UnsupportedFeature)
        decl = self.decls.get(_sym(head))
        if decl is None or not decl.is_function:
            raise s.error(f"unknown operator {head!r}")
        return self._apply(s, head, _APPLY, args, env)

    def _apply(self, s: _SExpr, head: str, op: tuple, args: list[_SExpr], env):
        """The application `s` of `head` to `args`, checked against `op`, an
        entry of `_OPERATORS`, and built: first the number of operands, then
        each operand parsed, then the sort of each, left to right."""
        sorts, arity, variadic, build = op
        if len(args) != arity and not (variadic and len(args) > arity):
            raise s.error(f"{head} expects {'at least ' if variadic else ''}{arity} arguments")
        xs = [self._expr(a, env) for a in args]
        if not variadic:
            for want, x in zip(sorts, xs):
                _check(s, want, x)
        elif sorts is not None:
            for x in xs:
                _check(s, sorts, x)
        return build(s, xs)

    def _let(self, s: _SExpr, env):
        items = s.items
        if len(items) != 3 or items[1].is_atom:
            raise s.error("malformed let")
        new_env = dict(env)
        for binding in items[1].items:
            if binding.is_atom or len(binding.items) != 2 or not binding.items[0].is_atom:
                raise s.error("malformed let binding")
            # bindings are parallel: values use the outer environment
            new_env[_sym(binding.items[0].text)] = self._expr(binding.items[1], env)
        return self._expr(items[2], new_env)

    def _atom_expr(self, s: _SExpr, env):
        text = s.text
        if text == "true":
            return BoolConst(True)
        if text == "false":
            return BoolConst(False)
        value = numeral(text, s.error)
        if value is not None:
            return IntConst(value)
        if text.startswith("#"):
            raise s.error("bit-vector and hex literals are not supported", UnsupportedFeature)
        name = _sym(text)
        if name in env:
            return env[name]
        if name in self.macros:
            return self.macros[name]
        decl = self.decls.get(name)
        if decl is None:
            raise s.error(f"undeclared symbol {name!r}")
        if decl.is_function:
            raise s.error(f"function {name!r} used without arguments")
        return _VARIABLES[decl.sort](name)


def _check(s: _SExpr, want: Sort | None, x) -> None:
    """Raise the sort error of `x`, read from `s`, unless it is of sort
    `want`; None takes any sort."""
    if want is not None and _SORT_OF[x.__class__] is not want:
        raise s.error(f"expected {_EXPECTED[want]} expression")


def _fixed(build, *sorts) -> tuple:  # the entry of an operator of one operand of each sort
    return sorts, len(sorts), False, build


def _variadic(least: int, sort: Sort | None, build) -> tuple:  # of `least` or more operands, all of `sort`
    return sort, least, True, build


def _relation(rel: Rel) -> tuple:  # chainable: (op a b c) is (and (op a b) (op b c))
    return _variadic(2, Sort.INT, lambda s, xs: conj(Atom(rel, a, b) for a, b in zip(xs, xs[1:])))


def _equal(s: _SExpr, xs: list) -> Formula:
    sort = _SORT_OF[xs[0].__class__]
    if any(_SORT_OF[x.__class__] is not sort for x in xs):
        raise s.error("= operands have different sorts")
    if sort is Sort.BOOL:
        return conj(Or((And((a, b)), And((Not(a), Not(b))))) for a, b in zip(xs, xs[1:]))  # iff
    return conj(Atom(Rel.EQ, a, b) for a, b in zip(xs, xs[1:]))


def _distinct(s: _SExpr, xs: list) -> Formula:
    sorts = {_SORT_OF[x.__class__] for x in xs}
    if len(sorts) != 1:
        raise s.error("distinct operands have different sorts")
    if Sort.BOOL in sorts:
        if len(xs) != 2:
            raise s.error("distinct over more than two Bool terms", UnsupportedFeature)
        return _xor(*xs)
    if len(xs) > 2 and Sort.ARRAY in sorts:
        raise s.error("distinct over array terms", UnsupportedFeature)
    # pairwise: (distinct a b c) is (and (distinct a b) (distinct a c) (distinct b c))
    return conj(Atom(Rel.NE, xs[i], xs[j]) for i in range(len(xs)) for j in range(i + 1, len(xs)))


def _ite(s: _SExpr, xs: list):
    cond, then, orelse = xs
    if _SORT_OF[then.__class__] is Sort.BOOL and _SORT_OF[orelse.__class__] is Sort.BOOL:
        return Or((And((cond, then)), And((Not(cond), orelse))))
    _check(s, Sort.INT, then)
    _check(s, Sort.INT, orelse)
    return Ite(cond, then, orelse)


def _negate(s: _SExpr, xs: list) -> Term:
    (x,) = xs
    return IntConst(-x.value) if x.__class__ is IntConst else Mul((IntConst(-1), x))


# Each operator's entry: (operand sorts, arity, variadic, builder).  A fixed
# operator takes `arity` operands, one of each sort; a variadic one takes
# `arity` or more, all of the one sort given.  A sort None takes any sort,
# which the builder checks.  The builder takes the application, where its
# errors are placed, and the checked operands.
_OPERATORS = {
    "+": _variadic(2, Sort.INT, lambda s, xs: Add(xs)),
    "-": _variadic(2, Sort.INT, lambda s, xs: functools.reduce(Sub, xs)),
    "*": _variadic(2, Sort.INT, lambda s, xs: Mul(xs)),
    "not": _fixed(lambda s, xs: Not(xs[0]), Sort.BOOL),
    # single-element connectives are normalized away, like nesting
    "and": _variadic(0, Sort.BOOL, lambda s, xs: conj(xs)),
    "or": _variadic(0, Sort.BOOL, lambda s, xs: disj(xs)),
    # right-associative: (=> a b c) is (=> a (=> b c))
    "=>": _variadic(2, Sort.BOOL, lambda s, xs: Or((*map(Not, xs[:-1]), xs[-1]))),
    "xor": _fixed(lambda s, xs: _xor(*xs), Sort.BOOL, Sort.BOOL),
    "select": _fixed(lambda s, xs: Select(*xs), Sort.ARRAY, Sort.INT),
    "store": _fixed(lambda s, xs: Store(*xs), Sort.ARRAY, Sort.INT, Sort.INT),
    **{rel.value: _relation(rel) for rel in (Rel.LT, Rel.LE, Rel.GT, Rel.GE)},
    "=": _variadic(2, None, _equal),
    "distinct": _variadic(2, None, _distinct),
    "ite": _fixed(_ite, Sort.BOOL, None, None),
}
_NEGATE = _fixed(_negate, Sort.INT)  # unary minus
# the application (f x) of a declared function, whose head `s` begins with
_APPLY = _fixed(lambda s, xs: Select(ArrayVar(_sym(s.items[0].text), function=True), xs[0]), Sort.INT)


_NUMERAL = re.compile(r"-?[0-9]+")


def numeral(text: str, error: Callable[[str], Exception]) -> int | None:
    """The integer that `text` spells in ASCII digits, with a leading "-"
    when negative, as solvers print model values; None for any other text,
    such as "²" or "٣", which `str.isdigit` accepts.  A numeral longer than
    Python converts (4300 digits by default) raises ``error(message)``, so
    each caller reports it as its own input's error."""
    if not _NUMERAL.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise error(f"numeral of {digits} digits exceeds the limit of {sys.get_int_max_str_digits()}") from None


def _xor(a: Formula, b: Formula) -> Formula:
    return Or((And((a, Not(b))), And((Not(a), b))))


def parse_problem(text: str) -> ParsedProblem:
    """Parse an SMT-LIB script into a single conjoined assertion."""
    return Parser().run(text)


# ---------------------------------------------------------------------------
# Printing


# The head of each node type with operands; an atom's is its relation's.
_HEADS = {Add: "+", Sub: "-", Mul: "*", Ite: "ite", Select: "select", Store: "store", Not: "not", And: "and", Or: "or"}
_REL_HEADS = {**{rel: rel.value for rel in Rel}, Rel.NE: "distinct"}


def print_formula(node: Term | Formula) -> str:
    """The SMT-LIB text of a term or formula.  An `and` or `or` of fewer
    than two operands prints as its operand, or as true or false."""
    kind = node.__class__
    if kind is IntConst:
        return str(node.value) if node.value >= 0 else f"(- {-node.value})"
    if kind is IntVar or kind is BoolVar or kind is ArrayVar:
        return _print_sym(node.name)
    if kind is BoolConst:
        return "true" if node.value else "false"
    if kind is Select and node.array.__class__ is ArrayVar and node.array.function:
        return f"({_print_sym(node.array.name)} {print_formula(node.index)})"
    kids = children(node)
    if kind is Atom:
        head = _REL_HEADS[node.rel]
    elif len(kids) < 2 and (kind is And or kind is Or):
        return print_formula(kids[0]) if kids else "true" if kind is And else "false"
    else:
        head = _HEADS[kind]
    return f"({head} {' '.join(map(print_formula, kids))})"


print_term = print_formula


# A symbol prints bare when it starts with one of the first characters and
# holds only the others; any other symbol prints quoted, as |name|.
_PLAIN_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ~!@$%^&*_-+=<>.?/"
_PLAIN_REST = _PLAIN_FIRST + "0123456789"


def _print_sym(name: str) -> str:
    if name and name[0] in _PLAIN_FIRST and not name.strip(_PLAIN_REST):
        return name
    return "|" + name + "|"


_SORT_TEXT = {sort: text for text, sort in _SORT_NAMES.items()}


def print_declaration(d: Declaration) -> str:
    sort = "(Int) Int" if d.is_function else "() " + _SORT_TEXT[d.sort]
    return f"(declare-fun {_print_sym(d.name)} {sort})"
