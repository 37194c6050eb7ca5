"""Formulas compiled to Python functions: the evaluator of the hot loops.

- :func:`compile_predicate` turns a conjunction into ``pred(*values)``
  over positional values, one per symbol (integer, Boolean or array,
  functions included): the sampler's per-draw check and injected-seed
  check, the check of ``verify``, and the fallback solver's scans.
- :func:`compile_node_values` turns a formula into a function over the
  same positional values that computes the value of every pre-order node
  once and returns those of the Int- and Bool-sorted nodes, as
  ``terms.SORT_OF`` sorts them, in one tuple, for coverage bitmaps.

Both walk a node's children as :func:`terms.children` lists them, so the
node numbering is that of :func:`terms.iter_nodes`.

Fragment.  The whole term grammar of :mod:`.terms`: integer constants and
variables, ``+``, ``-``, ``*``, term-level ite, select (function application
included), store and array variables; relational atoms (array equality
included), not/and/or, Boolean variables and constants.  Array values are
:class:`FuncValue` objects: a select of a name reads its cells inline, any
other select calls ``FuncValue.apply``, and a store ``FuncValue.with_store``.
Values and truth values equal those of :func:`terms.eval_formula` /
:func:`terms.eval_term`, which stay the reference, with the same evaluation
order and short-circuiting.

Hoisting.  CPython's parser fails at about 200 nested parentheses and its
compiler at a few thousand nested operators.  A subexpression that would
nest deeper than ``_MAX_DEPTH`` moves into a generated helper function,
called in its place; sums and products split into parenthesised groups of
``_CHAIN`` operands.  So every formula the interpreter evaluates compiles.

Security.  Generated source is built only from this module's templates, the
shape of our own AST and ``repr`` of int and bool constants.  Symbol names
never enter the text: symbols are the positional parameters ``v0``, ``v1``,
...; constants of any other type are bound as globals.  The code runs under
empty ``__builtins__``, so it reaches only the names bound here.
"""

from __future__ import annotations

import itertools

from .errors import UnassignedSymbol
from .terms import (
    Add,
    And,
    ArrayVar,
    Atom,
    BoolConst,
    BoolVar,
    Formula,
    FuncValue,
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
    children,
    sort_of,
)

_MAX_DEPTH = 40  # operator nesting of one generated expression
_CHAIN = 16  # operands of one + or * chain

_PY_REL = {Rel.LT: "<", Rel.LE: "<=", Rel.GT: ">", Rel.GE: ">=", Rel.EQ: "==", Rel.NE: "!="}


# Python text of each inner node type, except + and *, over its children's
# texts.
_TEMPLATES = {
    Atom: lambda n, c: f"({c[0]} {_PY_REL[n.rel]} {c[1]})",
    Not: lambda n, c: f"(not {c[0]})",
    And: lambda n, c: "(" + " and ".join(c) + ")" if c else "True",
    Or: lambda n, c: "(" + " or ".join(c) + ")" if c else "False",
    Sub: lambda n, c: f"({c[0]} - {c[1]})",
    Ite: lambda n, c: f"({c[1]} if {c[0]} else {c[2]})",
    Select: lambda n, c: (
        f"{c[0]}.exceptions.get({c[1]}, {c[0]}.default)" if c[0].isidentifier() else f"_apply({c[0]}, {c[1]})"
    ),
    Store: lambda n, c: f"_store({c[0]}, {c[1]}, {c[2]})",
}

# A piece of generated code: (text, operator nesting depth).
_Piece = tuple


class _Codegen:
    """Source and globals of one compiled function and its helpers, whose
    parameters ``v0, v1, ...`` are the values of the symbols `params`."""

    def __init__(self, params: list[str]):
        self.params = {name: f"v{i}" for i, name in enumerate(params)}
        self.signature = ", ".join(f"v{i}" for i in range(len(params)))
        self.env: dict = {
            "__builtins__": {},
            "_apply": FuncValue.apply,
            "_store": FuncValue.with_store,
        }
        self.functions: list[str] = []

    # -- leaves ------------------------------------------------------------

    def _symbol(self, name: str) -> _Piece:
        if name not in self.params:
            raise UnassignedSymbol(name)
        return (self.params[name], 0)

    def _const(self, value) -> _Piece:
        if type(value) in (int, bool):
            return (repr(value), 0)
        name = f"_c{len(self.env)}"
        self.env[name] = value
        return (name, 0)

    def _leaf(self, node) -> _Piece | None:
        kind = type(node)
        if kind is IntConst or kind is BoolConst:
            return self._const(node.value)
        return self._symbol(node.name) if kind in (IntVar, BoolVar, ArrayVar) else None

    # -- inner nodes ---------------------------------------------------------

    def _combine(self, node, kids: list[_Piece]) -> _Piece:
        """The expression of an inner node over its children's pieces."""
        kind = type(node)
        if kind is Add or kind is Mul:
            if not kids:
                return ("0" if kind is Add else "1", 0)
            op = " + " if kind is Add else " * "
            while len(kids) > _CHAIN:
                kids = [_join(op, kids[i : i + _CHAIN]) for i in range(0, len(kids), _CHAIN)]
            return _join(op, kids)
        try:
            template = _TEMPLATES[kind]
        except KeyError:
            raise TypeError(f"not a term or formula: {node!r}") from None
        text = template(node, [k[0] for k in kids])
        return (text, 1 + max((k[1] for k in kids), default=0))

    # -- expressions with hoisting -----------------------------------------

    def expression(self, node) -> _Piece:
        leaf = self._leaf(node)
        if leaf is not None:
            return leaf
        kids = [self.expression(k) for k in children(node)]
        piece = self._combine(node, kids)
        while piece[1] > _MAX_DEPTH:
            deepest = max(range(len(kids)), key=lambda i: kids[i][1])
            if kids[deepest][1] <= 1:
                break  # only a long chain of leaves, which grouping keeps shallow
            kids[deepest] = self._hoist(kids[deepest])
            piece = self._combine(node, kids)
        return piece

    def _hoist(self, piece: _Piece) -> _Piece:
        name = f"_h{len(self.functions)}"
        self.function(name, [f"return {piece[0]}"])
        return (f"{name}({self.signature})", 1)

    # -- functions -----------------------------------------------------------

    def function(self, name: str, body: list[str], packed: bool = False) -> None:
        """Add `def name(signature)` that runs `body`, or when `packed`,
        `def name(values)` that first unpacks the tuple `values`."""
        if packed and self.params:
            body = [f"{self.signature}, = values", *body]
        lines = [f"def {name}({'values' if packed else self.signature}):", *(f"    {line}" for line in body)]
        self.functions.append("\n".join(lines) + "\n")

    def build(self, name: str):
        """Execute the functions; return `name`, its source kept readable as
        its `source` attribute."""
        source = "\n".join(self.functions)
        exec(compile(source, "<compiled formula>", "exec"), self.env)  # source from our AST only
        fn = self.env[name]
        fn.source = source
        return fn


def _join(op: str, kids: list[_Piece]) -> _Piece:
    text = "(" + op.join(k[0] for k in kids) + ")"
    return (text, len(kids) + max(k[1] for k in kids))


def compile_predicate(formulas: list[Formula], var_names: list[str], packed: bool = False):
    """`pred(*values)`: the conjunction of `formulas` with the symbols
    `var_names` bound positionally, in order: ints and bools for integer and
    Boolean variables, :class:`FuncValue` objects for array variables
    (functions included).  Raises :class:`UnassignedSymbol` for any other
    symbol.  When `packed`, the values come as one tuple, `pred(values)`,
    as `filter` passes them."""
    gen = _Codegen(var_names)
    text, _ = gen.expression(And(tuple(formulas)))
    gen.function("_predicate", [f"return {text}"], packed)
    return gen.build("_predicate")


def compile_node_values(f: Formula, var_names: list[str]):
    """`(values, nodes)`.  `values(*args)`, with the symbols `var_names`
    bound positionally as in :func:`compile_predicate`, returns one tuple:
    the value of every Int- and Bool-sorted node in pre-order, each computed
    once from its children; `nodes` holds those nodes' pre-order indices
    (numbered as :func:`terms.iter_nodes` yields them).  Array-sorted nodes
    are computed but not returned."""
    gen = _Codegen(var_names)
    body: list[str] = []
    valued: list[tuple[int, str]] = []
    preorder = itertools.count()

    def visit(node) -> _Piece:
        index = next(preorder)
        piece = gen._leaf(node)
        if piece is None:
            expr, _ = gen._combine(node, [visit(k) for k in children(node)])
            body.append(f"n{index} = {expr}")
            piece = (f"n{index}", 0)
        if sort_of(node) is not Sort.ARRAY:
            valued.append((index, piece[0]))
        return piece

    visit(f)
    valued.sort()
    body.append("return (" + "".join(f"{text}, " for _, text in valued) + ")")
    gen.function("_values", body)
    return gen.build("_values"), [i for i, _ in valued]
