"""SMT-LIB v2 reader and writer for the supported fragment.

One reader, :func:`read_sexpr`, reads every s-expression of the package:
input files (:func:`parse_problem`) and both ends of the solver pipe, whose
text :class:`StreamReader` reads as it arrives: the commands the
`minisolver` reads and the replies the `solver` client reads.  It follows
the lexical rules of SMT-LIB 2.6 (``""`` is a quote inside a string,
``|...|`` a quoted symbol), says when a text holds no complete s-expression
yet, and gives each node the text it was read from and the offset it starts
at, from which an error's line and column are derived.

The parser handles set-logic, declare-fun / declare-const (Int, Bool,
(Array Int Int), unary Int -> Int functions), zero-parameter define-fun
(inlined), assert, and ignores set-info / set-option / check-sat / exit.
let-bindings are inlined during parsing and named-assertion attributes are
stripped, so downstream modules never deal with substitution.  The other
Boolean operators are lowered to not/and/or as they are read: ``(=> a b)``
is ``(or (not a) b)``, ``xor`` and two-Bool ``distinct`` are ``(or (and a
(not b)) (and (not a) b))``, Bool ``=`` is ``(or (and a b) (and (not a)
(not b)))``, Int ``distinct`` the pairwise disequalities, and Boolean ite
``(or (and c a) (and (not c) b))``; printing writes the lowered form.

A unary Int -> Int function is an array that SMT-LIB spells differently:
its declaration has sort ARRAY and ``is_function``, and ``(f x)`` is read
as ``Select(ArrayVar("f", function=True), x)`` and printed back as ``(f x)``.
"""

from __future__ import annotations

import re

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
    Term,
    _Record,
    conj,
    disj,
    sort_of,
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

    def error(self, message: str) -> SmtSyntaxError:  # at this node's line and column
        return SmtSyntaxError(message, self.source, self.offset)


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

    def locate(self, exc: SmtSyntaxError) -> str:
        """The message of `exc`, an error at what :meth:`feed` yielded last
        (or that error itself), with its line counted in the stream."""
        return f"{exc.line + self.base_line - 1}:{exc.col}: {exc.message}"


# ---------------------------------------------------------------------------
# Problem parsing

def _parse_sort(s: _SExpr) -> Sort:
    if s.is_atom:
        if s.text == "Int":
            return Sort.INT
        if s.text == "Bool":
            return Sort.BOOL
        raise UnsupportedFeature(f"unsupported sort {s.text!r}")
    parts = s.items
    if (
        len(parts) == 3
        and parts[0].is_atom
        and parts[0].text == "Array"
        and all(p.is_atom and p.text == "Int" for p in parts[1:])
    ):
        return Sort.ARRAY
    texts = " ".join(p.text if p.is_atom else "(...)" for p in parts)
    raise UnsupportedFeature(f"unsupported sort ({texts})")


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
        return ParsedProblem(
            self.logic, list(self.decls.values()), conj(self.assertions) if self.assertions else And(())
        )

    def command(self, s: _SExpr) -> None:
        if s.is_atom or not s.items or not s.items[0].is_atom:
            raise s.error("expected a command")
        head = s.items[0].text
        args = s.items[1:]
        if head in ("set-info", "set-option", "check-sat", "exit", "get-model", "get-value", "echo"):
            return
        if head == "set-logic":
            if len(args) != 1 or not args[0].is_atom:
                raise s.error("set-logic expects one symbol")
            logic = args[0].text
            if logic not in SUPPORTED_LOGICS:
                raise UnsupportedFeature(f"unsupported logic {logic}")
            self.logic = logic
            return
        if head == "declare-const":
            if len(args) != 2 or not args[0].is_atom:
                raise s.error("declare-const expects name and sort")
            self._declare(_sym(args[0].text), args[1], params=None)
            return
        if head == "declare-fun":
            if len(args) != 3 or not args[0].is_atom or args[1].is_atom:
                raise s.error("declare-fun expects name, params, sort")
            self._declare(_sym(args[0].text), args[2], params=args[1].items)
            return
        if head == "define-fun":
            if len(args) != 4 or not args[0].is_atom or args[1].is_atom:
                raise s.error("define-fun expects name, params, sort, body")
            if args[1].items:
                raise UnsupportedFeature("define-fun with parameters")
            body = self._expr(args[3], {})
            self.macros[_sym(args[0].text)] = body
            return
        if head == "assert":
            if len(args) != 1:
                raise s.error("assert expects one formula")
            self.assertions.append(self.formula(s, args[0]))
            return
        if head in ("push", "pop", "declare-sort", "define-sort", "declare-datatypes", "reset"):
            raise UnsupportedFeature(f"command {head} is outside the supported subset")
        raise UnsupportedFeature(f"unknown command {head}")

    def formula(self, command: _SExpr, s: _SExpr) -> Formula:
        """`s`, the formula that `command` asserts, which must be a Bool."""
        f = self._expr(s, {})
        if not self._is_formula(f):
            raise command.error("assert expects a Bool expression")
        return f

    def _declare(self, name: str, sort_expr: _SExpr, params) -> None:
        if params:
            psorts = [_parse_sort(p) for p in params]
            rsort = _parse_sort(sort_expr)
            if psorts == [Sort.INT] and rsort == Sort.INT:
                self.decls[name] = Declaration(name, Sort.ARRAY, is_function=True)
                return
            raise UnsupportedFeature("only unary Int -> Int uninterpreted functions are supported")
        self.decls[name] = Declaration(name, _parse_sort(sort_expr))

    # -- expressions ------------------------------------------------------

    @staticmethod
    def _is_formula(x) -> bool:
        return isinstance(x, FORMULA_TYPES)

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
        if head == "let":
            return self._let(s, env)
        if head == "!":
            if not args:
                raise s.error("empty attribute expression")
            return self._expr(args[0], env)  # attributes such as :named are stripped
        if head == "-" and len(args) == 1:
            inner = self._expr(args[0], env)
            self._want_int(inner, s)
            if isinstance(inner, IntConst):
                return IntConst(-inner.value)
            return Mul((IntConst(-1), inner))
        if head in ("+", "-", "*"):
            terms = [self._expr(a, env) for a in args]
            if len(terms) < 2:
                raise s.error(f"{head} expects at least 2 arguments")
            for t in terms:
                self._want_int(t, s)
            if head == "+":
                return Add(tuple(terms))
            if head == "*":
                return Mul(tuple(terms))
            acc = terms[0]
            for t in terms[1:]:
                acc = Sub(acc, t)
            return acc
        if head in ("div", "mod", "abs", "rem", "/", "to_real", "to_int"):
            raise UnsupportedFeature(f"operator {head} is outside the supported fragment")
        if head in ("forall", "exists"):
            raise UnsupportedFeature("quantifiers are not supported")
        if head in ("<", "<=", ">", ">=", "="):
            # chainable: (op a b c) is (and (op a b) (op b c))
            if len(args) < 2:
                raise s.error(f"{head} expects at least 2 arguments")
            xs = [self._expr(a, env) for a in args]
            return conj(self._relation(head, lhs, rhs, s) for lhs, rhs in zip(xs, xs[1:]))
        if head == "distinct":
            if len(args) < 2:
                raise s.error("distinct expects at least 2 arguments")
            xs = [self._expr(a, env) for a in args]
            if all(self._is_formula(x) for x in xs):
                if len(xs) == 2:
                    return _xor(*xs)
                raise UnsupportedFeature("distinct over more than two Bool terms")
            sorts = {sort_of(x) for x in xs if not self._is_formula(x)}
            if len(sorts) != 1 or any(self._is_formula(x) for x in xs):
                raise s.error("distinct operands have different sorts")
            if len(xs) > 2 and sorts != {Sort.INT}:
                raise UnsupportedFeature("distinct over array terms")
            # pairwise: (distinct a b c) is (and (distinct a b) (distinct a c) (distinct b c))
            return conj(Atom(Rel.NE, xs[i], xs[j]) for i in range(len(xs)) for j in range(i + 1, len(xs)))
        if head == "not":
            self._want_arity(args, 1, head, s)
            inner = self._expr(args[0], env)
            self._want_bool(inner, s)
            return Not(inner)
        if head in ("and", "or"):
            xs = [self._expr(a, env) for a in args]
            for x in xs:
                self._want_bool(x, s)
            # single-element connectives are normalized away, like nesting
            return conj(xs) if head == "and" else disj(xs)
        if head == "=>":
            if len(args) < 2:
                raise s.error("=> expects at least 2 arguments")
            xs = [self._expr(a, env) for a in args]
            for x in xs:
                self._want_bool(x, s)
            return Or((*map(Not, xs[:-1]), xs[-1]))  # right-associative: (=> a (=> b c))
        if head == "xor":
            self._want_arity(args, 2, head, s)
            lhs, rhs = (self._expr(a, env) for a in args)
            self._want_bool(lhs, s)
            self._want_bool(rhs, s)
            return _xor(lhs, rhs)
        if head == "ite":
            self._want_arity(args, 3, head, s)
            cond = self._expr(args[0], env)
            self._want_bool(cond, s)
            then = self._expr(args[1], env)
            orelse = self._expr(args[2], env)
            if self._is_formula(then) and self._is_formula(orelse):
                return Or((And((cond, then)), And((Not(cond), orelse))))
            self._want_int(then, s)
            self._want_int(orelse, s)
            return Ite(cond, then, orelse)
        if head == "select":
            self._want_arity(args, 2, head, s)
            arr = self._expr(args[0], env)
            idx = self._expr(args[1], env)
            self._want_array(arr, s)
            self._want_int(idx, s)
            return Select(arr, idx)
        if head == "store":
            self._want_arity(args, 3, head, s)
            arr = self._expr(args[0], env)
            idx = self._expr(args[1], env)
            val = self._expr(args[2], env)
            self._want_array(arr, s)
            self._want_int(idx, s)
            self._want_int(val, s)
            return Store(arr, idx, val)
        # user function application
        name = _sym(head)
        decl = self.decls.get(name)
        if decl is not None and decl.is_function:
            self._want_arity(args, 1, head, s)
            arg = self._expr(args[0], env)
            self._want_int(arg, s)
            return Select(ArrayVar(name, function=True), arg)
        raise s.error(f"unknown operator {head!r}")

    def _relation(self, head: str, lhs, rhs, s: _SExpr) -> Formula:
        if head != "=":
            self._want_int(lhs, s)
            self._want_int(rhs, s)
            return Atom(Rel(head), lhs, rhs)
        if self._is_formula(lhs) or self._is_formula(rhs):
            if not (self._is_formula(lhs) and self._is_formula(rhs)):
                raise s.error("= operands have different sorts")
            return Or((And((lhs, rhs)), And((Not(lhs), Not(rhs)))))  # iff
        if sort_of(lhs) != sort_of(rhs):
            raise s.error("= operands have different sorts")
        return Atom(Rel.EQ, lhs, rhs)

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
        if text.isdigit() or (text[0] == "-" and text[1:].isdigit()):
            return IntConst(int(text))
        if text.startswith("#"):
            raise UnsupportedFeature("bit-vector and hex literals are not supported")
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
        if decl.sort == Sort.INT:
            return IntVar(name)
        if decl.sort == Sort.BOOL:
            return BoolVar(name)
        return ArrayVar(name)

    def _want_arity(self, args, n, head, s):
        if len(args) != n:
            raise s.error(f"{head} expects {n} arguments")

    def _want_int(self, x, s):
        if self._is_formula(x) or sort_of(x) != Sort.INT:
            raise s.error("expected an Int expression")

    def _want_bool(self, x, s):
        if not self._is_formula(x):
            raise s.error("expected a Bool expression")

    def _want_array(self, x, s):
        if self._is_formula(x) or sort_of(x) != Sort.ARRAY:
            raise s.error("expected an (Array Int Int) expression")


def _xor(a: Formula, b: Formula) -> Formula:
    return Or((And((a, Not(b))), And((Not(a), b))))


def parse_problem(text: str) -> ParsedProblem:
    """Parse an SMT-LIB script into a single conjoined assertion."""
    return Parser().run(text)


# ---------------------------------------------------------------------------
# Printing


def print_term(t: Term) -> str:
    if isinstance(t, IntConst):
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if isinstance(t, (IntVar, ArrayVar)):
        return _print_sym(t.name)
    if isinstance(t, Add):
        return "(+ " + " ".join(print_term(a) for a in t.args) + ")"
    if isinstance(t, Sub):
        return f"(- {print_term(t.lhs)} {print_term(t.rhs)})"
    if isinstance(t, Mul):
        return "(* " + " ".join(print_term(a) for a in t.args) + ")"
    if isinstance(t, Ite):
        return f"(ite {print_formula(t.cond)} {print_term(t.then)} {print_term(t.orelse)})"
    if isinstance(t, Select):
        if isinstance(t.array, ArrayVar) and t.array.function:
            return f"({_print_sym(t.array.name)} {print_term(t.index)})"
        return f"(select {print_term(t.array)} {print_term(t.index)})"
    if isinstance(t, Store):
        return f"(store {print_term(t.array)} {print_term(t.index)} {print_term(t.value)})"
    raise TypeError(f"not a term: {t!r}")


_PLAIN_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ~!@$%^&*_-+=<>.?/")
_PLAIN_REST = _PLAIN_FIRST | set("0123456789")


def _print_sym(name: str) -> str:
    if name and name[0] in _PLAIN_FIRST and all(c in _PLAIN_REST for c in name):
        return name
    return "|" + name + "|"


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if f.rel == Rel.NE:
            return f"(distinct {print_term(f.lhs)} {print_term(f.rhs)})"
        return f"({f.rel.value} {print_term(f.lhs)} {print_term(f.rhs)})"
    if isinstance(f, Not):
        return f"(not {print_formula(f.arg)})"
    if isinstance(f, And):
        if not f.args:
            return "true"
        if len(f.args) == 1:
            return print_formula(f.args[0])
        return "(and " + " ".join(print_formula(a) for a in f.args) + ")"
    if isinstance(f, Or):
        if not f.args:
            return "false"
        if len(f.args) == 1:
            return print_formula(f.args[0])
        return "(or " + " ".join(print_formula(a) for a in f.args) + ")"
    if isinstance(f, BoolVar):
        return _print_sym(f.name)
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    raise TypeError(f"not a formula: {f!r}")


def print_declaration(d: Declaration) -> str:
    if d.is_function:
        return f"(declare-fun {_print_sym(d.name)} (Int) Int)"
    if d.sort == Sort.ARRAY:
        return f"(declare-fun {_print_sym(d.name)} () (Array Int Int))"
    return f"(declare-fun {_print_sym(d.name)} () {d.sort.value})"

