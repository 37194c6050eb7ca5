"""Sorted AST for integer formulas with arrays, plus models and evaluation.

Terms and formulas are immutable slotted classes over one base, ``_Node``,
compared and hashed structurally by the tuple of their fields, so they can
serve as dictionary keys and set members (interval maps, sets of seen
literals) and be shared freely; a node computes its hash once, on first
use, so that a deep term is not walked again at each lookup.  Models are
mutable value objects, compared by their fields: integers for scalar
variables and finite default-plus-exceptions functions for arrays, which
are never changed in place and hash by value, so that they can be shared.
How a model holds each sort is said here once: :meth:`Model.of` is the
dict of one sort, :meth:`Model.value` reads a symbol of it, and ``ZERO``
is, by sort, the value of a symbol that a model omits.  None of these
classes is a dataclass: the solver child (:mod:`.minisolver`) imports this
module, and :mod:`dataclasses` (with :mod:`inspect`) would make every start
of it about a quarter slower to its first answer.  Instead each node type
lists its fields once, in ``__slots__``, and ``_Node`` compiles its
``__init__``, ``__eq__`` and ``__hash__`` from that list: one small compile
per node type, about 0.15 ms each, and no :mod:`dataclasses` or
:mod:`inspect`.

Security.  The compiled source is built only from the templates of
``_Node.__init_subclass__`` and the ``__slots__`` of this module's node
types, which Python requires to be identifiers; no input text enters it.

A unary Int -> Int function is an array whose ``ArrayVar`` has
``function=True``, which only SMT-LIB printing reads: ``(f x)`` is
``Select(ArrayVar("f", True), x)``.

Formulas are relational atoms and Boolean variables and constants under
not/and/or: the parser lowers ``=>``, ``xor``, Bool ``=`` and ``distinct``
to these, and :func:`preprocess` lifts term-level ite out of atoms.  The
sort of each node type is stated once, in the table ``SORT_OF``, with Bool
for every formula type; :func:`sort_of` reads it, and so do the parser's
sort checks, the coverage widths and :mod:`.compiled`'s node values.

Node structure.  One table lists each node type's children in pre-order
(an ``Ite``: condition, then, else); :func:`children` reads it, and the
structural walks derive from it: :func:`iter_nodes`, whose numbering
coverage bitmaps and :mod:`.compiled` share, :func:`replace`, and the
SMT-LIB printer of :mod:`.smtlib`.  Evaluation, preprocessing and NNF stay
written per type.
A *select-like* term, told by :func:`is_select_like`, is a select over an
array variable, a function application included: a leaf that reads the
symbol ``t.array.name`` at the index ``t.index``, for the array pipeline,
the sampler and the minisolver alike.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

from .errors import UnassignedSymbol, UnsupportedFeature

# How deeply a formula may nest once the parser has lowered it and
# :func:`preprocess` has lifted its ites.  The passes over a formula recurse
# about two frames a level, so this leaves their callers about 200 of
# Python's default limit of 1000 frames.
_MAX_FORMULA_DEPTH = 384


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
# Value objects


class _Record:
    """Slotted value object whose fields are its ``__slots__``, with the
    repr and equality a dataclass would give it: equal when of the same
    class with equal fields, and therefore unhashable, except a function
    value (:class:`FuncValue`), which is never changed in place and hashes
    by value.  Subclasses write their own ``__init__``."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            names = self.__slots__
            return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


_set = object.__setattr__  # writes a field of a node, whose own __setattr__ raises


class _Node(_Record):
    """Base of the term and formula nodes: immutable, so that they can serve
    as dictionary keys and set members.  A node type lists its fields once,
    in ``__slots__``; :meth:`__init_subclass__` gives it the ``__init__``,
    ``__eq__`` and ``__hash__`` a frozen dataclass would, written out per
    type, because these are hot: a generic method over the fields compared
    nested nodes about half as fast.

    The hash is computed once per node: the first call hashes the tuple of
    the fields, whose nodes hand back their own kept hashes, and keeps the
    result in the slot ``_hash``, which is no field and which ``__init__``
    sets to None.  The value is the one a frozen dataclass would give, so
    no set or dict order depends on when it was computed.  It is computed
    on first use, not in ``__init__``: most nodes the solver child parses
    are never hashed, and computing it there made each parse of a box
    negation about a tenth slower.  The slot starts as None, and is not
    left empty, because reading an empty slot raises, and catching that
    made the first hash of a node about four times as slow."""

    __slots__ = ("_hash",)  # the hash once computed, else None (not a field)

    def __init_subclass__(cls):
        names = cls.__dict__["__slots__"]
        if not names:  # a base without fields of its own: _Variadic
            return
        mine = ", ".join(f"self.{n}" for n in names)
        theirs = ", ".join(f"other.{n}" for n in names)
        source = [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {mine} == {theirs}" if len(names) == 1 else f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
            "def __hash__(self):",
            "    h = self._hash",
            "    if h is None:",
            f"        h = hash(({mine},))",
            "        _set(self, '_hash', h)",
            "    return h",
        ]
        if cls.__init__ is object.__init__:  # neither it nor a base writes one
            source += [
                f"def __init__(self, {', '.join(names)}):",
                *(f"    _set(self, {n!r}, {n})" for n in names),
                "    _set(self, '_hash', None)",
            ]
        methods: dict = {}
        exec(compile("\n".join(source), f"<{cls.__name__} methods>", "exec"), {"_set": _set}, methods)  # slot names only
        for name, method in methods.items():
            setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild a node through its constructor
        return self.__class__, tuple(getattr(self, n) for n in self.__slots__)


class _Variadic(_Node):
    """A node over a tuple of `args` that flattens each direct child of its
    own type: Add, Mul, And and Or."""

    __slots__ = ()

    def __init__(self, args: tuple):
        flat: list = []
        kind = self.__class__
        for a in args:
            flat.extend(a.args) if a.__class__ is kind else flat.append(a)
        _set(self, "args", tuple(flat))
        _set(self, "_hash", None)


# ---------------------------------------------------------------------------
# Terms


class IntConst(_Node):
    __slots__ = ("value",)


class IntVar(_Node):
    __slots__ = ("name",)


class Add(_Variadic):
    __slots__ = ("args",)


class Sub(_Node):
    __slots__ = ("lhs", "rhs")


class Mul(_Variadic):
    __slots__ = ("args",)


class Ite(_Node):
    """Term-level if-then-else; removed by :func:`preprocess`."""

    __slots__ = ("cond", "then", "orelse")


class Select(_Node):
    __slots__ = ("array", "index")


class Store(_Node):
    __slots__ = ("array", "index", "value")


class ArrayVar(_Node):
    __slots__ = ("name", "function")

    def __init__(self, name: str, function: bool = False):
        _set(self, "name", name)
        _set(self, "function", function)  # a unary function, spelled (f x) in SMT-LIB
        _set(self, "_hash", None)


# The term node types.  `Term` names them in annotations, which are never
# evaluated, so it needs no `typing.Union`.
TERM_TYPES = Term = (IntConst, IntVar, Add, Sub, Mul, Ite, Select, Store, ArrayVar)


def is_select_like(t: Term) -> bool:
    """A select over an array variable: an array access or a function
    application."""
    return isinstance(t, Select) and isinstance(t.array, ArrayVar)


# ---------------------------------------------------------------------------
# Formulas


class Atom(_Node):
    __slots__ = ("rel", "lhs", "rhs")


class Not(_Node):
    __slots__ = ("arg",)


class And(_Variadic):
    __slots__ = ("args",)


class Or(_Variadic):
    __slots__ = ("args",)


class BoolVar(_Node):
    """Boolean variable, admitted as a 0-ary atom."""

    __slots__ = ("name",)


class BoolConst(_Node):
    __slots__ = ("value",)


FORMULA_TYPES = Formula = (Atom, Not, And, Or, BoolVar, BoolConst)  # as TERM_TYPES and Term


def conj(args) -> Formula:
    args = tuple(args)
    return args[0] if len(args) == 1 else And(args)


def disj(args) -> Formula:
    args = tuple(args)
    return args[0] if len(args) == 1 else Or(args)


# ---------------------------------------------------------------------------
# Sorts

# The sort of each node type, Bool for every formula type.
SORT_OF = {**dict.fromkeys(TERM_TYPES, Sort.INT), ArrayVar: Sort.ARRAY, Store: Sort.ARRAY}
SORT_OF.update(dict.fromkeys(FORMULA_TYPES, Sort.BOOL))


def sort_of(node) -> Sort:
    try:
        return SORT_OF[node.__class__]
    except KeyError:
        raise TypeError(f"not a term or formula: {node!r}") from None


# ---------------------------------------------------------------------------
# Models


class FuncValue(_Record):
    """Finite function value: maps every integer to `default` except for the
    listed exceptions.  Exceptions equal to the default are dropped so that
    structural equality coincides with extensional equality.  It is never
    changed in place (:meth:`with_store` returns a new one), so it hashes
    by value, whatever the insertion order of its exceptions."""

    __slots__ = ("default", "exceptions")

    def __init__(self, default: int, exceptions: dict[int, int] | None = None):
        self.default, cells = default, dict(exceptions) if exceptions else {}
        self.exceptions = {k: v for k, v in cells.items() if v != default} if default in cells.values() else cells

    def __eq__(self, other):  # compiled array equality calls this in the sampling loop
        if other.__class__ is self.__class__:
            return (self.default, self.exceptions) == (other.default, other.exceptions)
        return NotImplemented

    def __hash__(self):  # agrees with __eq__: the exceptions as a set of cells
        return hash((self.default, frozenset(self.exceptions.items())))

    def apply(self, index: int) -> int:
        return self.exceptions.get(index, self.default)

    def with_store(self, index: int, value: int) -> "FuncValue":
        return FuncValue(self.default, {**self.exceptions, index: value})


# The value of a symbol that a model omits, by sort: one constant-0 function
# serves every model, since a function value is never changed in place.
ZERO = {Sort.INT: 0, Sort.BOOL: False, Sort.ARRAY: FuncValue(0)}


class Model(_Record):
    """Assignment of values to the free symbols of a formula."""

    __slots__ = ("ints", "bools", "funcs")

    def __init__(
        self,
        ints: dict[str, int] | None = None,
        bools: dict[str, bool] | None = None,
        funcs: dict[str, FuncValue] | None = None,
    ):
        self.ints = {} if ints is None else ints
        self.bools = {} if bools is None else bools
        self.funcs = {} if funcs is None else funcs

    def of(self, sort: Sort) -> dict:
        """The values of the symbols of `sort`, by name."""
        return self.ints if sort is Sort.INT else self.bools if sort is Sort.BOOL else self.funcs

    def value(self, sort: Sort, name: str):
        """The value of the symbol `name` of `sort`, which must be assigned."""
        try:
            return self.of(sort)[name]
        except KeyError:
            raise UnassignedSymbol(name) from None

    def copy(self) -> "Model":
        return Model(dict(self.ints), dict(self.bools), dict(self.funcs))


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(t: Term, m: Model):
    """Evaluate `t` under `m`: integers for int-sorted terms, FuncValue for
    array-sorted ones.  This is hot, so a symbol is looked up in its dict
    first, and :meth:`Model.value` only raises the unassigned one's error."""
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, IntVar):
        return m.ints[t.name] if t.name in m.ints else m.value(Sort.INT, t.name)
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
    if isinstance(t, ArrayVar):
        return m.funcs[t.name] if t.name in m.funcs else m.value(Sort.ARRAY, t.name)
    raise TypeError(f"not a term: {t!r}")


class Values(dict):
    """The values of terms under one model, each term evaluated once: a term
    that is not yet a key is evaluated on first use and kept.  A select
    reads its index through the same dict, so that a chain of n nested
    selects costs n reads, however many of its links are asked for.  The
    model must not change while the dict is in use."""

    __slots__ = ("model",)

    def __init__(self, model: Model):
        self.model = model

    @classmethod
    def of(cls, m: "Model | Values") -> "Values":
        """`m` itself if it is a Values, else a new Values of the model `m`."""
        return m if m.__class__ is cls else cls(m)

    def __missing__(self, t):
        if t.__class__ is Select:
            value = eval_term(t.array, self.model).apply(self[t.index])
        else:
            value = eval_term(t, self.model)
        self[t] = value
        return value


# by the relation's value, a str, as a `Rel` member hashes in Python
_REL_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def eval_formula(f: Formula, m: Model) -> bool:
    if isinstance(f, Atom):
        return _REL_OPS[f.rel._value_](eval_term(f.lhs, m), eval_term(f.rhs, m))
    if isinstance(f, Not):
        return not eval_formula(f.arg, m)
    if isinstance(f, And):
        return all(eval_formula(a, m) for a in f.args)
    if isinstance(f, Or):
        return any(eval_formula(a, m) for a in f.args)
    if isinstance(f, BoolVar):
        return m.bools[f.name] if f.name in m.bools else m.value(Sort.BOOL, f.name)
    if isinstance(f, BoolConst):
        return f.value
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Negation normal form


def to_nnf(f: Formula) -> Formula:
    """Push negation inwards until it sits directly on atoms.

    Negated relational atoms are absorbed by flipping the relation, so the
    output contains `Not` only above boolean variables.  The literal count
    never increases.
    """
    if isinstance(f, (Atom, BoolVar, BoolConst)):
        return f
    if isinstance(f, And):
        return And(tuple(to_nnf(a) for a in f.args))
    if isinstance(f, Or):
        return Or(tuple(to_nnf(a) for a in f.args))
    if not isinstance(f, Not):
        raise TypeError(f"not a formula: {f!r}")
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
    raise TypeError(f"not a formula: {g!r}")


# ---------------------------------------------------------------------------
# Preprocessing: lift term-level ite out of atoms


def preprocess(f: Formula) -> Formula:
    """`f` with no term-level ite: an atom A over ``(ite c t e)`` becomes
    ``(c and A[t]) or (not c and A[e])``, until no ite is left.  A part of
    `f` with no ite is kept as it is.

    Lifting nests a formula deeper, as the parser's lowering of Bool ``=``,
    ``xor`` and Boolean ``ite`` does.  A formula that nests more than
    ``_MAX_FORMULA_DEPTH`` deep, before or after the lifting, raises the
    parser's :class:`UnsupportedFeature`, "expression nests too deeply",
    since every later pass recurses over it."""
    _check_depth(f)
    lifted = _lift(f)
    if lifted is not f:
        _check_depth(lifted)
    return lifted


def _lift(f: Formula) -> Formula:
    if isinstance(f, (BoolVar, BoolConst)):
        return f
    if isinstance(f, Not):
        arg = _lift(f.arg)
        return f if arg is f.arg else Not(arg)
    if isinstance(f, (And, Or)):
        args = tuple(_lift(a) for a in f.args)
        return f if all(a is b for a, b in zip(args, f.args)) else type(f)(args)
    if isinstance(f, Atom):
        ite = next((n for n in iter_nodes(f) if isinstance(n, Ite)), None)
        if ite is None:
            return f
        cond = _lift(ite.cond)
        then_atom = replace(f, ite, ite.then)
        else_atom = replace(f, ite, ite.orelse)
        return Or((And((cond, _lift(then_atom))), And((Not(cond), _lift(else_atom)))))
    raise TypeError(f"not a formula: {f!r}")


def _check_depth(f: Formula) -> None:
    """Raise unless `f` nests at most ``_MAX_FORMULA_DEPTH`` deep, a leaf
    counting as no level.  The walk takes one level at a time and holds a
    node once a level, so a formula whose text repeats its operands costs
    at most its distinct nodes a level, and no recursion."""
    level = [f]
    for _ in range(_MAX_FORMULA_DEPTH + 1):
        level = list({id(k): k for node in level for k in children(node)}.values())
        if not level:
            return
    raise UnsupportedFeature("expression nests too deeply")


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
    Sub: _pair,
    And: _args,
    Or: _args,
    Add: _args,
    Mul: _args,
    Not: lambda n: (n.arg,),
    Ite: lambda n: (n.cond, n.then, n.orelse),
    Select: lambda n: (n.array, n.index),
    Store: lambda n: (n.array, n.index, n.value),
}

def children(node) -> tuple:
    """The child nodes of a term or formula, in pre-order; () for a leaf."""
    try:
        return _CHILD_TABLE[type(node)](node)
    except KeyError:
        raise TypeError(f"not a term or formula: {node!r}") from None


def iter_nodes(node) -> Iterator[Formula | Term]:
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
    if isinstance(node, _Variadic):
        return kind(tuple(new))
    return kind(*new)


def iter_subterms(f: Formula) -> Iterator[Term]:
    for node in iter_nodes(f):
        if isinstance(node, TERM_TYPES):
            yield node


def free_symbols(f: Formula) -> dict[str, Sort]:
    """Free variable symbols of a formula with their sorts; a function
    symbol is an ARRAY."""
    out: dict[str, Sort] = {}
    for node in iter_nodes(f):
        if isinstance(node, IntVar):
            out[node.name] = Sort.INT
        elif isinstance(node, BoolVar):
            out[node.name] = Sort.BOOL
        elif isinstance(node, ArrayVar):
            out[node.name] = Sort.ARRAY
    return out
