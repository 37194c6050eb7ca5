"""Reduce array product terms to integer literals over select-like leaves.

The pipeline rewrites array equalities via a fresh shared-array construction,
removes select-over-store terms with model-guided case splits, and freezes
the aliasing configuration of the model with index (dis)equality literals.
The integer strengthening then runs on that product as it stands: it treats
every select-like term (:func:`terms.is_select_like`, a function
application included) as a leaf that reads ``t.array.name`` at
``t.index``, so the box is keyed on integer variables and the original
select-like terms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import NoWitness, UnsupportedFeature
from .implicant import ProductTerm, compute_implicant
from .intervals import IntervalMap
from .strengthen import LiteralForms
from .strengthen import product_to_intervals as _int_product_to_intervals
from .terms import (
    And,
    ArrayVar,
    Atom,
    Formula,
    IntConst,
    IntVar,
    Model,
    Or,
    Rel,
    Select,
    Sort,
    Store,
    Term,
    Values,
    eval_term,
    free_symbols,
    is_select_like,
    iter_nodes,
    iter_subterms,
    replace,
    sort_of,
)

_FRESH_ARRAY_PREFIX = "!c"
_FRESH_SCALAR_PREFIX = "!u"


# ---------------------------------------------------------------------------
# Select-over-store elimination


def _find_select_store(lit: Formula) -> Select | None:
    for sub in iter_nodes(lit):
        if isinstance(sub, Select) and isinstance(sub.array, Store):
            return sub
    return None


def eliminate_select_store(product: ProductTerm, m: Model, rng: random.Random) -> ProductTerm:
    """Case-split every select-over-store on whether the stored index aliases
    the selected one under the model, keeping the branch the model satisfies."""
    work = list(product)
    out: ProductTerm = []
    seen: set[Formula] = set()
    while work:
        lit = work.pop(0)
        target = _find_select_store(lit)
        if target is None:
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
            continue
        store = target.array
        assert isinstance(store, Store)
        t_i, t_e, t_j = store.index, store.value, target.index
        hit = replace(lit, target, t_e)
        miss = replace(lit, target, Select(store.array, t_j))
        case_split = Or(
            (
                And((Atom(Rel.EQ, t_i, t_j), hit)),
                And((Atom(Rel.NE, t_i, t_j), miss)),
            )
        )
        work = compute_implicant(case_split, m, rng) + work
    return out


# ---------------------------------------------------------------------------
# Array equality / disequality rewriting


def _store_chain(t: Term) -> tuple[Term, list[tuple[Term, Term]]]:
    """Decompose a store chain into (base array, [(index, value)]) with the
    list in application order: the last pair wins on index clashes."""
    chain: list[tuple[Term, Term]] = []
    while isinstance(t, Store):
        chain.append((t.index, t.value))
        t = t.array
    chain.reverse()
    return t, chain


def _build_chain(base: Term, chain: list[tuple[Term, Term]]) -> Term:
    for idx, val in chain:
        base = Store(base, idx, val)
    return base


def _is_array_atom(lit: Formula) -> bool:
    return isinstance(lit, Atom) and sort_of(lit.lhs) == Sort.ARRAY


class _FreshNames:
    def __init__(self, used: set[str]):
        self.used = set(used)
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return name


def _used_names(product: ProductTerm, m: Model) -> set[str]:
    used: set[str] = set(m.ints) | set(m.bools) | set(m.funcs)
    for lit in product:
        used |= set(free_symbols(lit))
    return used


def _drop_shadowed(chain, m):
    """Remove stores whose index value is overwritten later in the chain;
    emit an index-equality literal for each dropped store."""
    kept = []
    aliases: list[Formula] = []
    values = [eval_term(idx, m) for idx, _ in chain]
    for k, (idx, val) in enumerate(chain):
        winner = None
        for j in range(k + 1, len(chain)):
            if values[j] == values[k]:
                winner = chain[j][0]
                break
        if winner is None:
            kept.append((idx, val))
        else:
            aliases.append(Atom(Rel.EQ, idx, winner))
    return kept, aliases


def rewrite_array_equality(
    product: ProductTerm, m: Model
) -> tuple[ProductTerm, Model, list[tuple[str, Term]]]:
    """Replace array-sorted (dis)equalities by scalar literals.

    Equalities over distinct base arrays introduce a fresh common array plus
    fresh scalars; a disequality is replaced by disagreement at a witness
    index extracted from the model.  Returns the transformed product, the
    model extended with values for the fresh symbols, and the substitution
    recipe (array name, replacement term) in application order, needed to
    rebuild the substituted arrays from a sample of the rewritten product."""
    m = m.copy()
    fresh = _FreshNames(_used_names(product, m))
    recipes: list[tuple[str, Term]] = []
    work = list(product)
    out: ProductTerm = []
    while work:
        lit = work.pop(0)
        if not _is_array_atom(lit):
            out.append(lit)
            continue
        if lit.rel == Rel.NE:
            work.insert(0, _disequality_witness(lit, m))
            continue
        if lit.rel != Rel.EQ:
            raise UnsupportedFeature("array atoms admit only = and distinct")
        base1, chain1 = _store_chain(lit.lhs)
        base2, chain2 = _store_chain(lit.rhs)
        assert isinstance(base1, ArrayVar) and isinstance(base2, ArrayVar)
        if base1.name == base2.name:
            # both sides see the same base: agreement on every stored index
            # is equivalent to equality of the chains
            for idx, _ in chain1 + chain2:
                work.insert(0, Atom(Rel.EQ, Select(lit.lhs, idx), Select(lit.rhs, idx)))
            continue
        chain1, alias1 = _drop_shadowed(chain1, m)
        chain2, alias2 = _drop_shadowed(chain2, m)
        common = ArrayVar(fresh.fresh(_FRESH_ARRAY_PREFIX))
        # each side's stores, at its indices, of fresh scalars over the common array
        stores1 = [(idx, IntVar(fresh.fresh(_FRESH_SCALAR_PREFIX))) for idx, _ in chain1]
        stores2 = [(idx, IntVar(fresh.fresh(_FRESH_SCALAR_PREFIX))) for idx, _ in chain2]
        subst1, subst2 = _build_chain(common, stores1), _build_chain(common, stores2)
        new_lits: list[Formula] = list(alias1) + list(alias2)
        new_lits += [Atom(Rel.EQ, Select(common, idx), val) for idx, val in chain1]
        new_lits += [Atom(Rel.EQ, Select(common, idx), val) for idx, val in chain2]
        # extend the model before substituting so every new literal holds
        m.funcs[common.name] = eval_term(lit.lhs, m)
        for base, stores in ((base1, stores1), (base2, stores2)):
            f = m.value(Sort.ARRAY, base.name)
            for idx, scalar in stores:
                m.ints[scalar.name] = f.apply(eval_term(idx, m))

        def substitute(f: Formula) -> Formula:
            f = replace(f, base1, subst1)
            return replace(f, base2, subst2)

        work = [substitute(x) for x in new_lits + work]
        out = [substitute(x) for x in out]
        recipes = [(name, replace(replace(t, base1, subst1), base2, subst2)) for name, t in recipes]
        recipes.append((base1.name, subst1))
        recipes.append((base2.name, subst2))
    return out, m, recipes


def _disequality_witness(lit: Atom, m: Model) -> Formula:
    f1 = eval_term(lit.lhs, m)
    f2 = eval_term(lit.rhs, m)
    keys = sorted(set(f1.exceptions) | set(f2.exceptions))
    witness = None
    for k in keys:
        if f1.apply(k) != f2.apply(k):
            witness = k
            break
    if witness is None:
        if f1.default == f2.default:
            raise NoWitness("arrays are extensionally equal under the model")
        witness = max(keys) + 1 if keys else 0
    w = IntConst(witness)
    return Atom(Rel.NE, Select(lit.lhs, w), Select(lit.rhs, w))


# ---------------------------------------------------------------------------
# Aliasing literals


def build_aliasing(product: ProductTerm, m: Model | Values) -> list[Formula]:
    """Freeze which same-array accesses coincide under the model `m` (or an
    epoch's Values of it): each aliased pair gets an index then a value
    equality, and after all pairs come the index disequalities of the
    rest.  Each index is read once."""
    values = Values.of(m)
    groups: dict[str, dict[Term, None]] = {}  # the accesses of each array, in order of first sight
    for lit in product:
        for sub in iter_subterms(lit):
            if is_select_like(sub):
                groups.setdefault(sub.array.name, {})[sub] = None
    equalities: list[Formula] = []
    disequalities: list[Formula] = []
    for terms in groups.values():
        for t1, t2 in itertools.combinations(terms, 2):
            i1, i2 = t1.index, t2.index
            if values[i1] == values[i2]:
                equalities += [Atom(Rel.EQ, i1, i2), Atom(Rel.EQ, t1, t2)]
            else:
                disequalities.append(Atom(Rel.NE, i1, i2))
    return equalities + disequalities


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass
class ArrayPipelineResult:
    intervals: IntervalMap
    seed: Model  # extended with fresh symbols from equality rewriting
    reconstructions: list[tuple[str, Term]]


def product_to_intervals(
    product: ProductTerm,
    m: Model,
    rng: random.Random,
    forms: LiteralForms | None = None,
    deadline: float | None = None,
) -> ArrayPipelineResult:
    """Interval bounds for a product term with arrays and functions.

    Keys of the resulting map are integer variables and select-like terms,
    and the returned seed model covers any fresh symbols introduced by
    equality rewriting.  The aliasing and the integer strengthening read the
    extended model through one :class:`terms.Values`, and `forms` and
    `deadline` are the integer strengthening's
    (:func:`strengthen.product_to_intervals`)."""
    product, m, recipes = rewrite_array_equality(product, m)
    product = eliminate_select_store(product, m, rng)
    values = Values(m)
    present = set(product)
    full = product + [lit for lit in build_aliasing(product, values) if lit not in present]
    return ArrayPipelineResult(_int_product_to_intervals(full, values, forms, deadline), m, recipes)
