"""Sorted AST for integer formulas with arrays, plus models and evaluation.

Terms and formulas are immutable dataclasses compared structurally, so they
can serve as dictionary keys and set members (interval maps, sets of seen
literals) and be shared freely.  Models are plain value objects: integers for scalar variables and
finite default-plus-exceptions functions for arrays and unary uninterpreted
functions.

Node structure.  One table lists each node type's children in pre-order
(an ``Ite``: condition, then, else); :func:`children` reads it, and the
structural walks derive from it: :func:`iter_nodes`, whose numbering
coverage bitmaps and :mod:`.compiled` share, and :func:`replace`.
Evaluation, printing, preprocessing and NNF stay written per type.
The select-like vocabulary lives here too: :func:`is_select_like` tells an
array access or function application, which :func:`select_symbol` and
:func:`select_index` take apart, for the array pipeline, the sampler and
the minisolver alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Union, get_args

from .errors import UnassignedSymbol, UnsupportedFeature


class Sort(Enum):
    INT = "Int"
    BOOL = "Bool"
    ARRAY = "Array"  # always int -> int


class Rel(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="

    def negate(self) -> "Rel":
        return _NEGATED[self]


_NEGATED = {
    Rel.LT: Rel.GE,
    Rel.LE: Rel.GT,
    Rel.GT: Rel.LE,
    Rel.GE: Rel.LT,
    Rel.EQ: Rel.NE,
    Rel.NE: Rel.EQ,
}


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class IntVar:
    name: str


@dataclass(frozen=True)
class Add:
    args: tuple["Term", ...]

    def __post_init__(self):
        flat: list[Term] = []
        for a in self.args:
            flat.extend(a.args) if isinstance(a, Add) else flat.append(a)
        object.__setattr__(self, "args", tuple(flat))


@dataclass(frozen=True)
class Sub:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Mul:
    args: tuple["Term", ...]

    def __post_init__(self):
        flat: list[Term] = []
        for a in self.args:
            flat.extend(a.args) if isinstance(a, Mul) else flat.append(a)
        object.__setattr__(self, "args", tuple(flat))


@dataclass(frozen=True)
class Ite:
    """Term-level if-then-else; removed by :func:`preprocess`."""

    cond: "Formula"
    then: "Term"
    orelse: "Term"


@dataclass(frozen=True)
class Select:
    array: "Term"
    index: "Term"


@dataclass(frozen=True)
class Store:
    array: "Term"
    index: "Term"
    value: "Term"


@dataclass(frozen=True)
class FunApp:
    """Application of a unary uninterpreted function to an integer term."""

    fname: str
    arg: "Term"


@dataclass(frozen=True)
class ArrayVar:
    name: str


Term = Union[IntConst, IntVar, Add, Sub, Mul, Ite, Select, Store, FunApp, ArrayVar]
TERM_TYPES = get_args(Term)


def is_select_like(t: Term) -> bool:
    """Array access or unary function application over an array variable."""
    return (isinstance(t, Select) and isinstance(t.array, ArrayVar)) or isinstance(t, FunApp)


def select_symbol(t: Term) -> str:
    """The array or function a select-like term reads."""
    return t.array.name if isinstance(t, Select) else t.fname


def select_index(t: Term) -> Term:
    """The index term of a select-like term."""
    return t.index if isinstance(t, Select) else t.arg


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Atom:
    rel: Rel
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    args: tuple["Formula", ...]

    def __post_init__(self):
        flat: list[Formula] = []
        for a in self.args:
            flat.extend(a.args) if isinstance(a, And) else flat.append(a)
        object.__setattr__(self, "args", tuple(flat))


@dataclass(frozen=True)
class Or:
    args: tuple["Formula", ...]

    def __post_init__(self):
        flat: list[Formula] = []
        for a in self.args:
            flat.extend(a.args) if isinstance(a, Or) else flat.append(a)
        object.__setattr__(self, "args", tuple(flat))


@dataclass(frozen=True)
class BoolVar:
    """Boolean variable, admitted as a 0-ary atom."""

    name: str


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Iff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Xor:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class DistinctF:
    """n-ary pairwise-distinct over integer terms; removed by preprocess."""

    args: tuple[Term, ...]


Formula = Union[Atom, Not, And, Or, BoolVar, BoolConst, Implies, Iff, Xor, DistinctF]
FORMULA_TYPES = get_args(Formula)


def conj(args) -> Formula:
    args = tuple(args)
    return args[0] if len(args) == 1 else And(args)


def disj(args) -> Formula:
    args = tuple(args)
    return args[0] if len(args) == 1 else Or(args)


TRUE = And(())


def is_literal(f: Formula) -> bool:
    return isinstance(f, (Atom, BoolVar, BoolConst)) or (
        isinstance(f, Not) and isinstance(f.arg, (Atom, BoolVar))
    )


# ---------------------------------------------------------------------------
# Sorts


def sort_of(t: Term) -> Sort:
    if isinstance(t, (IntConst, IntVar, Add, Sub, Mul, Ite, Select, FunApp)):
        return Sort.INT
    if isinstance(t, (ArrayVar, Store)):
        return Sort.ARRAY
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Models


@dataclass
class FuncValue:
    """Finite function value: maps every integer to `default` except for the
    listed exceptions.  Exceptions equal to the default are dropped so that
    structural equality coincides with extensional equality."""

    default: int
    exceptions: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.exceptions = {k: v for k, v in self.exceptions.items() if v != self.default}

    def apply(self, index: int) -> int:
        return self.exceptions.get(index, self.default)

    def with_store(self, index: int, value: int) -> "FuncValue":
        exc = dict(self.exceptions)
        exc[index] = value
        return FuncValue(self.default, exc)

    def copy(self) -> "FuncValue":
        return FuncValue(self.default, dict(self.exceptions))


@dataclass
class Model:
    """Assignment of values to the free symbols of a formula."""

    ints: dict[str, int] = field(default_factory=dict)
    bools: dict[str, bool] = field(default_factory=dict)
    funcs: dict[str, FuncValue] = field(default_factory=dict)

    def int_value(self, name: str) -> int:
        try:
            return self.ints[name]
        except KeyError:
            raise UnassignedSymbol(name) from None

    def bool_value(self, name: str) -> bool:
        try:
            return self.bools[name]
        except KeyError:
            raise UnassignedSymbol(name) from None

    def func_value(self, name: str) -> FuncValue:
        try:
            return self.funcs[name]
        except KeyError:
            raise UnassignedSymbol(name) from None

    def copy(self) -> "Model":
        return Model(
            dict(self.ints),
            dict(self.bools),
            {k: v.copy() for k, v in self.funcs.items()},
        )


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(t: Term, m: Model):
    """Evaluate `t` under `m`: integers for int-sorted terms, FuncValue for
    array-sorted ones."""
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, IntVar):
        return m.int_value(t.name)
    if isinstance(t, Add):
        return sum(eval_term(a, m) for a in t.args)
    if isinstance(t, Sub):
        return eval_term(t.lhs, m) - eval_term(t.rhs, m)
    if isinstance(t, Mul):
        prod = 1
        for a in t.args:
            prod *= eval_term(a, m)
        return prod
    if isinstance(t, Ite):
        return eval_term(t.then if eval_formula(t.cond, m) else t.orelse, m)
    if isinstance(t, Select):
        return eval_term(t.array, m).apply(eval_term(t.index, m))
    if isinstance(t, Store):
        return eval_term(t.array, m).with_store(
            eval_term(t.index, m), eval_term(t.value, m)
        )
    if isinstance(t, FunApp):
        return m.func_value(t.fname).apply(eval_term(t.arg, m))
    if isinstance(t, ArrayVar):
        return m.func_value(t.name)
    raise TypeError(f"not a term: {t!r}")


_REL_OPS = {
    Rel.LT: lambda a, b: a < b,
    Rel.LE: lambda a, b: a <= b,
    Rel.GT: lambda a, b: a > b,
    Rel.GE: lambda a, b: a >= b,
    Rel.EQ: lambda a, b: a == b,
    Rel.NE: lambda a, b: a != b,
}


def eval_formula(f: Formula, m: Model) -> bool:
    if isinstance(f, Atom):
        return _REL_OPS[f.rel](eval_term(f.lhs, m), eval_term(f.rhs, m))
    if isinstance(f, Not):
        return not eval_formula(f.arg, m)
    if isinstance(f, And):
        return all(eval_formula(a, m) for a in f.args)
    if isinstance(f, Or):
        return any(eval_formula(a, m) for a in f.args)
    if isinstance(f, BoolVar):
        return m.bool_value(f.name)
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Implies):
        return (not eval_formula(f.lhs, m)) or eval_formula(f.rhs, m)
    if isinstance(f, Iff):
        return eval_formula(f.lhs, m) == eval_formula(f.rhs, m)
    if isinstance(f, Xor):
        return eval_formula(f.lhs, m) != eval_formula(f.rhs, m)
    if isinstance(f, DistinctF):
        vals = [eval_term(a, m) for a in f.args]
        return len(set(vals)) == len(vals)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Negation normal form

_CORE = (Atom, Not, And, Or, BoolVar, BoolConst)


def to_nnf(f: Formula) -> Formula:
    """Push negation inwards until it sits directly on atoms.

    Negated relational atoms are absorbed by flipping the relation, so the
    output contains `Not` only above boolean variables.  The literal count
    never increases.  Expects a preprocessed formula (core connectives only).
    """
    if not isinstance(f, _CORE):
        raise UnsupportedFeature(f"formula must be preprocessed before NNF: {type(f).__name__}")
    if isinstance(f, (Atom, BoolVar, BoolConst)):
        return f
    if isinstance(f, And):
        return And(tuple(to_nnf(a) for a in f.args))
    if isinstance(f, Or):
        return Or(tuple(to_nnf(a) for a in f.args))
    # f is a negation
    g = f.arg
    if isinstance(g, Atom):
        return Atom(g.rel.negate(), g.lhs, g.rhs)
    if isinstance(g, Not):
        return to_nnf(g.arg)
    if isinstance(g, And):
        return Or(tuple(to_nnf(Not(a)) for a in g.args))
    if isinstance(g, Or):
        return And(tuple(to_nnf(Not(a)) for a in g.args))
    if isinstance(g, BoolConst):
        return BoolConst(not g.value)
    if isinstance(g, BoolVar):
        return f
    raise UnsupportedFeature(f"formula must be preprocessed before NNF: {type(g).__name__}")


def literal_count(f: Formula) -> int:
    if isinstance(f, (Atom, BoolVar, BoolConst)):
        return 1
    if isinstance(f, Not):
        return literal_count(f.arg)
    if isinstance(f, (And, Or)):
        return sum(literal_count(a) for a in f.args)
    if isinstance(f, (Implies, Iff, Xor)):
        return literal_count(f.lhs) + literal_count(f.rhs)
    if isinstance(f, DistinctF):
        return 1
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Preprocessing: lower ite / implication / iff / xor / distinct to the core
# grammar, rejecting out-of-scope constructs.


def preprocess(f: Formula) -> Formula:
    """Rewrite to the core grammar: And/Or/Not/Atom/BoolVar/BoolConst.

    Term-level ite inside an atom A becomes (c and A[then]) or (not c and
    A[else]); distinct expands pairwise; =>, =-on-bool and xor expand to
    and/or/not.
    """
    if isinstance(f, (BoolVar, BoolConst)):
        return f
    if isinstance(f, Not):
        return Not(preprocess(f.arg))
    if isinstance(f, And):
        return And(tuple(preprocess(a) for a in f.args))
    if isinstance(f, Or):
        return Or(tuple(preprocess(a) for a in f.args))
    if isinstance(f, Implies):
        return Or((Not(preprocess(f.lhs)), preprocess(f.rhs)))
    if isinstance(f, Iff):
        a, b = preprocess(f.lhs), preprocess(f.rhs)
        return Or((And((a, b)), And((Not(a), Not(b)))))
    if isinstance(f, Xor):
        a, b = preprocess(f.lhs), preprocess(f.rhs)
        return Or((And((a, Not(b))), And((Not(a), b))))
    if isinstance(f, DistinctF):
        pairs = [
            Atom(Rel.NE, f.args[i], f.args[j])
            for i in range(len(f.args))
            for j in range(i + 1, len(f.args))
        ]
        return preprocess(conj(pairs)) if pairs else TRUE
    if isinstance(f, Atom):
        ite = next((n for n in iter_nodes(f) if isinstance(n, Ite)), None)
        if ite is None:
            return f
        cond = preprocess(ite.cond)
        then_atom = replace(f, ite, ite.then)
        else_atom = replace(f, ite, ite.orelse)
        return Or((And((cond, preprocess(then_atom))), And((Not(cond), preprocess(else_atom)))))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Node structure: one child table, and the walks derived from it


def _none(node) -> tuple:
    return ()


def _pair(node) -> tuple:
    return (node.lhs, node.rhs)


def _args(node) -> tuple:
    return node.args


# Children of each node type, in pre-order.
_CHILD_TABLE = {
    IntConst: _none,
    IntVar: _none,
    ArrayVar: _none,
    BoolVar: _none,
    BoolConst: _none,
    Atom: _pair,
    Implies: _pair,
    Iff: _pair,
    Xor: _pair,
    Sub: _pair,
    And: _args,
    Or: _args,
    DistinctF: _args,
    Add: _args,
    Mul: _args,
    Not: lambda n: (n.arg,),
    FunApp: lambda n: (n.arg,),
    Ite: lambda n: (n.cond, n.then, n.orelse),
    Select: lambda n: (n.array, n.index),
    Store: lambda n: (n.array, n.index, n.value),
}

_VARIADIC = (And, Or, DistinctF, Add, Mul)


def children(node) -> tuple:
    """The child nodes of a term or formula, in pre-order; () for a leaf."""
    try:
        return _CHILD_TABLE[type(node)](node)
    except KeyError:
        raise TypeError(f"not a term or formula: {node!r}") from None


def iter_nodes(node) -> Iterator[Union[Formula, Term]]:
    """Deterministic pre-order walk over a term or formula and every node
    below it, the conditions of ites included."""
    table = _CHILD_TABLE  # the lookup of `children`, inlined: this walk is hot
    stack = [node]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        yield node
        try:
            kids = table[type(node)](node)
        except KeyError:
            raise TypeError(f"not a term or formula: {node!r}") from None
        if kids:
            push(reversed(kids))


def replace(node, target: Term, repl: Term):
    """`node` with every occurrence of `target` replaced by `repl`, the
    conditions of ites included."""
    kind = type(node)
    if kind is type(target) and node == target:
        return repl
    kids = children(node)
    if not kids:
        return node
    new = [replace(k, target, repl) for k in kids]
    if kind is Atom:
        return Atom(node.rel, *new)
    if kind is FunApp:
        return FunApp(node.fname, *new)
    if kind in _VARIADIC:
        return kind(tuple(new))
    return kind(*new)


def iter_subterms(f: Formula) -> Iterator[Term]:
    for node in iter_nodes(f):
        if isinstance(node, TERM_TYPES):
            yield node


def free_symbols(f: Formula) -> dict[str, Sort]:
    """Free variable symbols of a formula with their sorts.  Uninterpreted
    function names are not included; see :func:`fun_names`."""
    out: dict[str, Sort] = {}
    for node in iter_nodes(f):
        if isinstance(node, IntVar):
            out[node.name] = Sort.INT
        elif isinstance(node, BoolVar):
            out[node.name] = Sort.BOOL
        elif isinstance(node, ArrayVar):
            out[node.name] = Sort.ARRAY
    return out


def fun_names(f: Formula) -> set[str]:
    return {n.fname for n in iter_nodes(f) if isinstance(n, FunApp)}
