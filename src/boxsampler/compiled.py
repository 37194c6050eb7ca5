"""Formulas compiled to Python functions: the evaluator of the hot loops.

- :func:`compile_predicate` turns a conjunction into ``pred(*values)``
  over positional values, one per symbol (integer, Boolean or array,
  functions included): the sampler's per-draw check and injected-seed
  check, the check of ``verify``, and the fallback solver's scans.
- :func:`compile_node_values` turns a formula into a function over the
  same positional values that computes the value of every pre-order node
  once and returns those of the Int- and Bool-sorted nodes but constant
  leaves, as ``terms.SORT_OF`` sorts them, in one tuple, for coverage.

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

Parentheses.  A child is parenthesized only where its operator binds less
tightly than its place needs, and an ite or a difference in a sum always,
so that a chain nests only its own operands.  Each pair costs: ``compile()``
of the ``lia_wide-1-0`` predicate took 239 µs with one around every node,
136 µs with these (best of 400, 2-core VM).

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
    SORT_OF,
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
)

_MAX_DEPTH = 40  # operator nesting of one generated expression
_CHAIN = 16  # operands of one + or * chain

_PY_REL = {Rel.LT: "<", Rel.LE: "<=", Rel.GT: ">", Rel.GE: ">=", Rel.EQ: "==", Rel.NE: "!="}

_OR, _AND, _NOT, _CMP, _SUM, _PRODUCT, _UNARY, _PRIMARY = range(8)  # binding strengths, loosest first

# Each inner node type's strength; the least strength of an operand left
# bare, of each in turn or of all of a variadic type's; and its text over
# the operands' texts, or the operator that joins a variadic type's.
_TEMPLATES = {
    Atom: (_CMP, (_SUM, _SUM), lambda n, c: f"{c[0]} {_PY_REL[n.rel]} {c[1]}"),
    Not: (_NOT, (_NOT,), lambda n, c: f"not {c[0]}"),
    Sub: (_SUM, (_SUM, _PRODUCT), lambda n, c: f"{c[0]} - {c[1]}"),
    Ite: (_PRIMARY, (_OR, _OR, _OR), lambda n, c: f"({c[1]} if {c[0]} else {c[2]})"),
    Select: (_PRIMARY, (_OR, _OR), lambda n, c: (
        f"{c[0]}.exceptions.get({c[1]}, {c[0]}.default)" if c[0].isidentifier() else f"_apply({c[0]}, {c[1]})"
    )),
    Store: (_PRIMARY, (_OR, _OR, _OR), lambda n, c: f"_store({c[0]}, {c[1]}, {c[2]})"),
    And: (_AND, _NOT, " and "),
    Or: (_OR, _AND, " or "),
    Add: (_SUM, _PRODUCT, " + "),
    Mul: (_PRODUCT, _PRODUCT, " * "),
}
_EMPTY = {And: "True", Or: "False", Add: "0", Mul: "1"}  # a variadic node without operands

# A piece of generated code: (text, operator nesting depth, strength).
_Piece = tuple

_SYMBOLS, _CONSTANTS = (IntVar, BoolVar, ArrayVar), (IntConst, BoolConst)


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

    def _combine(self, node, kids: list[_Piece]) -> _Piece:
        """The expression of an inner node over its children's pieces."""
        kind = node.__class__
        try:
            strength, least, template = _TEMPLATES[kind]
        except KeyError:
            raise TypeError(f"not a term or formula: {node!r}") from None
        if template.__class__ is not str:
            texts = [t if s >= need else f"({t})" for (t, _, s), need in zip(kids, least)]
            return (template(node, texts), 1 + max([k[1] for k in kids]), strength)
        if not kids:
            return (_EMPTY[kind], 0, _PRIMARY)
        chain = kind is Add or kind is Mul  # nests one node of Python's syntax tree per operand
        while chain and len(kids) > _CHAIN:
            groups = [self._combine(node, kids[i : i + _CHAIN]) for i in range(0, len(kids), _CHAIN)]
            kids = [(f"({t})", d, _PRIMARY) for t, d, _ in groups]
        text = template.join([t if s >= least else f"({t})" for t, _, s in kids])
        return (text, (len(kids) if chain else 1) + max([k[1] for k in kids]), strength)

    def expression(self, node) -> _Piece:
        kind = node.__class__
        if kind in _SYMBOLS:
            name = self.params.get(node.name)
            if name is None:
                raise UnassignedSymbol(node.name)
            return (name, 0, _PRIMARY)
        if kind in _CONSTANTS:
            value = node.value
            if type(value) in (int, bool):
                return (repr(value), 0, _UNARY if value < 0 else _PRIMARY)
            name = f"_c{len(self.env)}"
            self.env[name] = value
            return (name, 0, _PRIMARY)
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
        return (f"{name}({self.signature})", 1, _PRIMARY)

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


def compile_predicate(formulas: list[Formula], var_names: list[str], packed: bool = False):
    """`pred(*values)`: the conjunction of `formulas` with the symbols
    `var_names` bound positionally, in order: ints and bools for integer and
    Boolean variables, :class:`FuncValue` objects for array variables
    (functions included).  Raises :class:`UnassignedSymbol` for any other
    symbol.  When `packed`, the values come as one tuple, `pred(values)`,
    as `filter` passes them."""
    gen = _Codegen(var_names)
    text, _, _ = gen.expression(And(tuple(formulas)))
    gen.function("_predicate", [f"return {text}"], packed)
    return gen.build("_predicate")


def compile_node_values(f: Formula, var_names: list[str]):
    """`(values, nodes, constants)`.  `values(*args)`, with the symbols
    `var_names` bound positionally as in :func:`compile_predicate`, returns
    one tuple: the value of every Int- and Bool-sorted node in pre-order but
    the constant leaves, each computed once from its children; `nodes` holds
    those nodes' pre-order indices (numbered as :func:`terms.iter_nodes`
    yields them), and `constants` the `(index, value)` of each integer and
    Boolean constant leaf.  Array-sorted nodes are computed but not returned."""
    gen = _Codegen(var_names)
    body: list[str] = []
    valued: list[tuple[int, str]] = []
    constants: list[tuple[int, object]] = []
    preorder = itertools.count()

    def visit(node) -> _Piece:
        index, kind = next(preorder), node.__class__
        if kind in _SYMBOLS or kind in _CONSTANTS:
            piece = gen.expression(node)
        else:
            body.append(f"n{index} = {gen._combine(node, [visit(k) for k in children(node)])[0]}")
            piece = (f"n{index}", 0, _PRIMARY)
        if kind in _CONSTANTS:
            constants.append((index, node.value))
        elif SORT_OF[kind] is not Sort.ARRAY:
            valued.append((index, piece[0]))
        return piece

    visit(f)
    valued.sort()
    body.append("return (" + "".join(f"{text}, " for _, text in valued) + ")")
    gen.function("_values", body)
    return gen.build("_values"), [i for i, _ in valued], constants
