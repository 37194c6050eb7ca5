"""SMT-LIB v2 reader and writer for the supported fragment.

The reader handles set-logic, declare-fun / declare-const (Int, Bool,
(Array Int Int), unary Int -> Int functions), zero-parameter define-fun
(inlined), assert, and ignores set-info / set-option / check-sat / exit.
let-bindings are inlined during parsing and named-assertion attributes are
stripped, so downstream modules never deal with substitution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SmtSyntaxError, UnsupportedFeature
from .terms import (
    Add,
    And,
    ArrayVar,
    Atom,
    BoolConst,
    BoolVar,
    DistinctF,
    Formula,
    FunApp,
    Iff,
    Implies,
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
    Xor,
    conj,
    disj,
    sort_of,
)

SUPPORTED_LOGICS = {"QF_LIA", "QF_NIA", "QF_ALIA", "QF_AUFLIA", "QF_UFLIA"}


@dataclass
class Declaration:
    name: str
    sort: Sort  # for FUNCTION declarations, sort is INT and is_function=True
    is_function: bool = False


@dataclass
class ParsedProblem:
    logic: str | None
    declarations: list[Declaration]
    assertion: Formula

    def sort_env(self) -> dict[str, Declaration]:
        return {d.name: d for d in self.declarations}


# ---------------------------------------------------------------------------
# Tokenizer / s-expression reader


@dataclass
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str):
    line, col = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            yield _Tok(ch, line, col)
            col += 1
            i += 1
            continue
        if ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtSyntaxError("unterminated quoted symbol", line, col)
            yield _Tok(text[i : j + 1], line, col)
            col += j + 1 - i
            i = j + 1
            continue
        if ch == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise SmtSyntaxError("unterminated string literal", line, col)
            yield _Tok(text[i : j + 1], line, col)
            col += j + 1 - i
            i = j + 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();|\"":
            j += 1
        yield _Tok(text[i:j], line, col)
        col += j - i
        i = j


# A complete string (``""`` is an escaped quote), quoted symbol or bare atom,
# as :func:`_tokenize` reads it.
_ATOM_TOKEN = re.compile(r'''"[^"]*(?:""[^"]*)*"|\|[^|]*\||[^ \t\r\n();|"]+''')


def sexpr_end(text: str) -> int | None:
    """The offset just past the first complete top-level s-expression of
    `text`, or None while there is none yet.  Comments, strings and quoted
    symbols follow :func:`_tokenize`, so parentheses inside them do not
    count (inside a list, the escaped quote ``""`` reads as a string that
    ends and one that starts, which skips the same text).  A stray ``)`` is
    an s-expression of its own: a reader reports it as unbalanced and
    carries on after it."""
    depth = 0
    skip_to = None  # the character that ends the comment, string or quoted symbol being skipped
    for i, ch in enumerate(text):
        if skip_to is not None:
            if ch == skip_to:
                skip_to = None
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth <= 0:
                return i + 1
        elif ch in " \t\r\n":
            pass
        elif ch == ";":
            skip_to = "\n"
        elif depth:
            if ch == '"' or ch == "|":
                skip_to = ch
        else:
            token = _ATOM_TOKEN.match(text, i)  # None while a string or symbol is unterminated
            return None if token is None else token.end()
    return None


class _SExpr:
    """Either an atom token or a parenthesized list of _SExpr."""

    __slots__ = ("items", "tok")

    def __init__(self, items, tok: _Tok):
        self.items = items  # None for atoms
        self.tok = tok

    @property
    def is_atom(self) -> bool:
        return self.items is None

    @property
    def text(self) -> str:
        return self.tok.text


def _read_sexprs(text: str) -> list[_SExpr]:
    stack: list[list[_SExpr]] = [[]]
    opens: list[_Tok] = []
    try:
        for tok in _tokenize(text):
            if tok.text == "(":
                stack.append([])
                opens.append(tok)
            elif tok.text == ")":
                if len(stack) == 1:
                    raise SmtSyntaxError("unbalanced ')'", tok.line, tok.col)
                items = stack.pop()
                stack[-1].append(_SExpr(items, opens.pop()))
            else:
                stack[-1].append(_SExpr(None, tok))
    except RecursionError:  # pragma: no cover - defensive
        raise SmtSyntaxError("input too deeply nested", 0, 0) from None
    if len(stack) != 1:
        tok = opens[-1]
        raise SmtSyntaxError("unbalanced '('", tok.line, tok.col)
    return stack[0]


# ---------------------------------------------------------------------------
# Problem parsing

_INT_SORT = ("Int",)
_BOOL_SORT = ("Bool",)


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


class _Parser:
    def __init__(self):
        self.logic: str | None = None
        self.decls: dict[str, Declaration] = {}
        self.macros: dict[str, Term | Formula] = {}
        self.assertions: list[Formula] = []

    # -- commands ---------------------------------------------------------

    def run(self, text: str) -> ParsedProblem:
        for sexpr in _read_sexprs(text):
            self._command(sexpr)
        return ParsedProblem(
            self.logic, list(self.decls.values()), conj(self.assertions) if self.assertions else And(())
        )

    def _command(self, s: _SExpr) -> None:
        if s.is_atom or not s.items or not s.items[0].is_atom:
            raise SmtSyntaxError("expected a command", s.tok.line, s.tok.col)
        head = s.items[0].text
        args = s.items[1:]
        if head in ("set-info", "set-option", "check-sat", "exit", "get-model", "get-value", "echo"):
            return
        if head == "set-logic":
            if len(args) != 1 or not args[0].is_atom:
                raise SmtSyntaxError("set-logic expects one symbol", s.tok.line, s.tok.col)
            logic = args[0].text
            if logic not in SUPPORTED_LOGICS:
                raise UnsupportedFeature(f"unsupported logic {logic}")
            self.logic = logic
            return
        if head == "declare-const":
            if len(args) != 2 or not args[0].is_atom:
                raise SmtSyntaxError("declare-const expects name and sort", s.tok.line, s.tok.col)
            self._declare(_sym(args[0].text), args[1], params=None)
            return
        if head == "declare-fun":
            if len(args) != 3 or not args[0].is_atom or args[1].is_atom:
                raise SmtSyntaxError("declare-fun expects name, params, sort", s.tok.line, s.tok.col)
            self._declare(_sym(args[0].text), args[2], params=args[1].items)
            return
        if head == "define-fun":
            if len(args) != 4 or not args[0].is_atom or args[1].is_atom:
                raise SmtSyntaxError("define-fun expects name, params, sort, body", s.tok.line, s.tok.col)
            if args[1].items:
                raise UnsupportedFeature("define-fun with parameters")
            body = self._expr(args[3], {})
            self.macros[_sym(args[0].text)] = body
            return
        if head == "assert":
            if len(args) != 1:
                raise SmtSyntaxError("assert expects one formula", s.tok.line, s.tok.col)
            f = self._expr(args[0], {})
            if not self._is_formula(f):
                raise SmtSyntaxError("assert expects a Bool expression", s.tok.line, s.tok.col)
            self.assertions.append(f)
            return
        if head in ("push", "pop", "declare-sort", "define-sort", "declare-datatypes", "reset"):
            raise UnsupportedFeature(f"command {head} is outside the supported subset")
        raise UnsupportedFeature(f"unknown command {head}")

    def _declare(self, name: str, sort_expr: _SExpr, params) -> None:
        if params:
            psorts = [_parse_sort(p) for p in params]
            rsort = _parse_sort(sort_expr)
            if psorts == [Sort.INT] and rsort == Sort.INT:
                self.decls[name] = Declaration(name, Sort.INT, is_function=True)
                return
            raise UnsupportedFeature("only unary Int -> Int uninterpreted functions are supported")
        self.decls[name] = Declaration(name, _parse_sort(sort_expr))

    # -- expressions ------------------------------------------------------

    @staticmethod
    def _is_formula(x) -> bool:
        return isinstance(x, (Atom, Not, And, Or, BoolVar, BoolConst, Implies, Iff, Xor, DistinctF))

    def _expr(self, s: _SExpr, env: dict[str, Term | Formula]):
        if s.is_atom:
            return self._atom_expr(s, env)
        items = s.items
        if not items:
            raise SmtSyntaxError("empty application", s.tok.line, s.tok.col)
        if not items[0].is_atom:
            raise SmtSyntaxError("expected an operator symbol", s.tok.line, s.tok.col)
        head = items[0].text
        args = items[1:]
        if head == "let":
            return self._let(s, env)
        if head == "!":
            if not args:
                raise SmtSyntaxError("empty attribute expression", s.tok.line, s.tok.col)
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
                raise SmtSyntaxError(f"{head} expects at least 2 arguments", s.tok.line, s.tok.col)
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
        if head in ("<", "<=", ">", ">="):
            self._want_arity(args, 2, head, s)
            lhs, rhs = (self._expr(a, env) for a in args)
            self._want_int(lhs, s)
            self._want_int(rhs, s)
            return Atom(Rel(head), lhs, rhs)
        if head == "=":
            self._want_arity(args, 2, head, s)
            lhs, rhs = (self._expr(a, env) for a in args)
            if self._is_formula(lhs) or self._is_formula(rhs):
                if not (self._is_formula(lhs) and self._is_formula(rhs)):
                    raise SmtSyntaxError("= operands have different sorts", s.tok.line, s.tok.col)
                return Iff(lhs, rhs)
            if sort_of(lhs) != sort_of(rhs):
                raise SmtSyntaxError("= operands have different sorts", s.tok.line, s.tok.col)
            return Atom(Rel.EQ, lhs, rhs)
        if head == "distinct":
            if len(args) < 2:
                raise SmtSyntaxError("distinct expects at least 2 arguments", s.tok.line, s.tok.col)
            xs = [self._expr(a, env) for a in args]
            if all(self._is_formula(x) for x in xs):
                if len(xs) == 2:
                    return Xor(xs[0], xs[1])
                raise UnsupportedFeature("distinct over more than two Bool terms")
            sorts = {sort_of(x) for x in xs if not self._is_formula(x)}
            if len(sorts) != 1 or any(self._is_formula(x) for x in xs):
                raise SmtSyntaxError("distinct operands have different sorts", s.tok.line, s.tok.col)
            if len(xs) == 2:
                return Atom(Rel.NE, xs[0], xs[1])
            if sorts == {Sort.INT}:
                return DistinctF(tuple(xs))
            raise UnsupportedFeature("distinct over array terms")
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
                raise SmtSyntaxError("=> expects at least 2 arguments", s.tok.line, s.tok.col)
            xs = [self._expr(a, env) for a in args]
            for x in xs:
                self._want_bool(x, s)
            acc = xs[-1]
            for x in reversed(xs[:-1]):
                acc = Implies(x, acc)
            return acc
        if head == "xor":
            self._want_arity(args, 2, head, s)
            lhs, rhs = (self._expr(a, env) for a in args)
            self._want_bool(lhs, s)
            self._want_bool(rhs, s)
            return Xor(lhs, rhs)
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
            return FunApp(name, arg)
        raise SmtSyntaxError(f"unknown operator {head!r}", s.tok.line, s.tok.col)

    def _let(self, s: _SExpr, env):
        items = s.items
        if len(items) != 3 or items[1].is_atom:
            raise SmtSyntaxError("malformed let", s.tok.line, s.tok.col)
        new_env = dict(env)
        for binding in items[1].items:
            if binding.is_atom or len(binding.items) != 2 or not binding.items[0].is_atom:
                raise SmtSyntaxError("malformed let binding", s.tok.line, s.tok.col)
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
            raise SmtSyntaxError(f"undeclared symbol {name!r}", s.tok.line, s.tok.col)
        if decl.is_function:
            raise SmtSyntaxError(f"function {name!r} used without arguments", s.tok.line, s.tok.col)
        if decl.sort == Sort.INT:
            return IntVar(name)
        if decl.sort == Sort.BOOL:
            return BoolVar(name)
        return ArrayVar(name)

    def _want_arity(self, args, n, head, s):
        if len(args) != n:
            raise SmtSyntaxError(f"{head} expects {n} arguments", s.tok.line, s.tok.col)

    def _want_int(self, x, s):
        if self._is_formula(x) or sort_of(x) != Sort.INT:
            raise SmtSyntaxError("expected an Int expression", s.tok.line, s.tok.col)

    def _want_bool(self, x, s):
        if not self._is_formula(x):
            raise SmtSyntaxError("expected a Bool expression", s.tok.line, s.tok.col)

    def _want_array(self, x, s):
        if self._is_formula(x) or sort_of(x) != Sort.ARRAY:
            raise SmtSyntaxError("expected an (Array Int Int) expression", s.tok.line, s.tok.col)


def parse_problem(text: str) -> ParsedProblem:
    """Parse an SMT-LIB script into a single conjoined assertion."""
    return _Parser().run(text)


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
        return f"(select {print_term(t.array)} {print_term(t.index)})"
    if isinstance(t, Store):
        return f"(store {print_term(t.array)} {print_term(t.index)} {print_term(t.value)})"
    if isinstance(t, FunApp):
        return f"({_print_sym(t.fname)} {print_term(t.arg)})"
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
    if isinstance(f, Implies):
        return f"(=> {print_formula(f.lhs)} {print_formula(f.rhs)})"
    if isinstance(f, Iff):
        return f"(= {print_formula(f.lhs)} {print_formula(f.rhs)})"
    if isinstance(f, Xor):
        return f"(xor {print_formula(f.lhs)} {print_formula(f.rhs)})"
    if isinstance(f, DistinctF):
        return "(distinct " + " ".join(print_term(a) for a in f.args) + ")"
    raise TypeError(f"not a formula: {f!r}")


def print_declaration(d: Declaration) -> str:
    if d.is_function:
        return f"(declare-fun {_print_sym(d.name)} (Int) Int)"
    if d.sort == Sort.ARRAY:
        return f"(declare-fun {_print_sym(d.name)} () (Array Int Int))"
    return f"(declare-fun {_print_sym(d.name)} () {d.sort.value})"


def print_problem(p: ParsedProblem) -> str:
    lines = []
    if p.logic:
        lines.append(f"(set-logic {p.logic})")
    lines.extend(print_declaration(d) for d in p.declarations)
    lines.append(f"(assert {print_formula(p.assertion)})")
    return "\n".join(lines) + "\n"
