"""Reduce array product terms to plain integer ones and back.

The pipeline rewrites array equalities via a fresh shared-array construction,
removes select-over-store terms with model-guided case splits, freezes the
aliasing configuration of the model with index (dis)equality literals, then
replaces every select / function-application term with a fresh integer
variable ("grounding").  The integer strengthening runs on the grounded
product, and the resulting bounds are mapped back onto the original terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import NoWitness, UnknownGroundVar, UnsupportedFeature
from .implicant import ProductTerm, compute_implicant
from .intervals import IntervalMap
from .strengthen import product_to_intervals as _int_product_to_intervals
from .terms import (
    Add,
    And,
    ArrayVar,
    Atom,
    BoolConst,
    BoolVar,
    Formula,
    FunApp,
    IntConst,
    IntVar,
    Model,
    Mul,
    Not,
    Or,
    Rel,
    Select,
    Sort,
    Store,
    Sub,
    Term,
    eval_term,
    free_symbols,
    fun_names,
    iter_subterms,
    iter_term_nodes,
    replace_in_formula,
    replace_term,
    sort_of,
)

_GROUND_PREFIX = "!g"
_FRESH_ARRAY_PREFIX = "!c"
_FRESH_SCALAR_PREFIX = "!u"


@dataclass
class GroundingTable:
    """Injective mapping between select-like terms and fresh int variables."""

    by_term: dict[Term, str] = field(default_factory=dict)
    by_name: dict[str, Term] = field(default_factory=dict)

    def var_for(self, term: Term) -> str:
        name = self.by_term.get(term)
        if name is None:
            name = f"{_GROUND_PREFIX}{len(self.by_term)}"
            self.by_term[term] = name
            self.by_name[name] = term
        return name

    @staticmethod
    def is_ground_name(name: str) -> bool:
        return name.startswith(_GROUND_PREFIX)


@dataclass
class AliasingLiterals:
    """Index (dis)equalities freezing which accesses coincide in the model."""

    equalities: list[tuple[tuple[Term, Term], tuple[Term, Term]]] = field(default_factory=list)
    disequalities: list[tuple[Term, Term]] = field(default_factory=list)

    def literals(self) -> list[Formula]:
        out: list[Formula] = []
        for (i1, i2), (t1, t2) in self.equalities:
            out.append(Atom(Rel.EQ, i1, i2))
            out.append(Atom(Rel.EQ, t1, t2))
        for i1, i2 in self.disequalities:
            out.append(Atom(Rel.NE, i1, i2))
        return out


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
# Select-over-store elimination


def _find_select_store(t) -> Select | None:
    for sub in iter_term_nodes(t):
        if isinstance(sub, Select) and isinstance(sub.array, Store):
            return sub
    return None


def _literal_select_store(lit: Formula) -> Select | None:
    if isinstance(lit, Atom):
        return _find_select_store(lit.lhs) or _find_select_store(lit.rhs)
    if isinstance(lit, Not):
        return _literal_select_store(lit.arg)
    return None


def eliminate_select_store(product: ProductTerm, m: Model, rng: random.Random) -> ProductTerm:
    """Case-split every select-over-store on whether the stored index aliases
    the selected one under the model, keeping the branch the model satisfies."""
    work = list(product)
    out: ProductTerm = []
    seen: set[Formula] = set()
    while work:
        lit = work.pop(0)
        target = _literal_select_store(lit)
        if target is None:
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
            continue
        store = target.array
        assert isinstance(store, Store)
        t_i, t_e, t_j = store.index, store.value, target.index
        hit = replace_in_formula(lit, target, t_e)
        miss = replace_in_formula(lit, target, Select(store.array, t_j))
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
        used |= fun_names(lit)
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
        subst1 = _build_chain(
            common, [(idx, IntVar(fresh.fresh(_FRESH_SCALAR_PREFIX))) for idx, _ in chain1]
        )
        subst2 = _build_chain(
            common, [(idx, IntVar(fresh.fresh(_FRESH_SCALAR_PREFIX))) for idx, _ in chain2]
        )
        new_lits: list[Formula] = list(alias1) + list(alias2)
        new_lits += [Atom(Rel.EQ, Select(common, idx), val) for idx, val in chain1]
        new_lits += [Atom(Rel.EQ, Select(common, idx), val) for idx, val in chain2]
        # extend the model before substituting so every new literal holds
        shared = eval_term(lit.lhs, m)
        m.funcs[common.name] = shared.copy()
        f1, f2 = m.func_value(base1.name), m.func_value(base2.name)
        _, uchain1 = _store_chain(subst1)
        _, uchain2 = _store_chain(subst2)
        for (idx, uvar), _orig in zip(uchain1, chain1):
            m.ints[uvar.name] = f1.apply(eval_term(idx, m))
        for (idx, uvar), _orig in zip(uchain2, chain2):
            m.ints[uvar.name] = f2.apply(eval_term(idx, m))

        def substitute(f: Formula) -> Formula:
            f = replace_in_formula(f, base1, subst1)
            return replace_in_formula(f, base2, subst2)

        work = [substitute(x) for x in new_lits + work]
        out = [substitute(x) for x in out]
        recipes = [(name, replace_term(replace_term(t, base1, subst1), base2, subst2)) for name, t in recipes]
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


def build_aliasing(product: ProductTerm, m: Model) -> AliasingLiterals:
    """Freeze which same-array accesses coincide under the model: aliased
    pairs get index and value equalities, the rest index disequalities."""
    groups: dict[str, list[Term]] = {}
    for lit in product:
        for sub in iter_subterms(lit):
            if is_select_like(sub):
                group = groups.setdefault(select_symbol(sub), [])
                if sub not in group:
                    group.append(sub)
    out = AliasingLiterals()
    for terms in groups.values():
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                t1, t2 = terms[i], terms[j]
                i1, i2 = select_index(t1), select_index(t2)
                if eval_term(i1, m) == eval_term(i2, m):
                    out.equalities.append(((i1, i2), (t1, t2)))
                else:
                    out.disequalities.append((i1, i2))
    return out


# ---------------------------------------------------------------------------
# Atomic grounding


def ground_term(t: Term, table: GroundingTable) -> Term:
    """Replace maximal select-like subterms by their grounding variables."""
    if is_select_like(t):
        _register(t, table)
        return IntVar(table.var_for(t))
    if isinstance(t, (IntConst, IntVar)):
        return t
    if isinstance(t, Add):
        return Add(tuple(ground_term(a, table) for a in t.args))
    if isinstance(t, Mul):
        return Mul(tuple(ground_term(a, table) for a in t.args))
    if isinstance(t, Sub):
        return Sub(ground_term(t.lhs, table), ground_term(t.rhs, table))
    raise UnsupportedFeature(f"cannot ground term of type {type(t).__name__}")


def _register(t: Term, table: GroundingTable) -> None:
    # nested select-like terms are registered too: the grounded model must
    # assign every member of the grounded-term set
    table.var_for(t)
    for sub in iter_term_nodes(select_index(t)):
        if is_select_like(sub):
            _register(sub, table)


def ground_formula(f: Formula, table: GroundingTable) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.rel, ground_term(f.lhs, table), ground_term(f.rhs, table))
    if isinstance(f, Not):
        return Not(ground_formula(f.arg, table))
    if isinstance(f, And):
        return And(tuple(ground_formula(a, table) for a in f.args))
    if isinstance(f, Or):
        return Or(tuple(ground_formula(a, table) for a in f.args))
    if isinstance(f, (BoolVar, BoolConst)):
        return f
    raise UnsupportedFeature(f"cannot ground formula of type {type(f).__name__}")


def ground_model(m: Model, table: GroundingTable) -> Model:
    grounded = Model(dict(m.ints), dict(m.bools), {})
    for term, name in table.by_term.items():
        grounded.ints[name] = eval_term(term, m)
    return grounded


def ground(product: ProductTerm, m: Model) -> tuple[ProductTerm, Model, GroundingTable]:
    """Ground a product term free of stores and array atoms."""
    table = GroundingTable()
    grounded = [ground_formula(lit, table) for lit in product]
    return grounded, ground_model(m, table), table


def unground(iv: IntervalMap, table: GroundingTable) -> IntervalMap:
    """Map grounding variables in interval keys back to their terms."""
    out = IntervalMap()
    for key, interval in iv.entries.items():
        if isinstance(key, IntVar) and key.name in table.by_name:
            out.refine(table.by_name[key.name], interval)
        elif isinstance(key, IntVar) and GroundingTable.is_ground_name(key.name):
            raise UnknownGroundVar(key.name)
        else:
            out.refine(key, interval)
    return out


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass
class ArrayPipelineResult:
    intervals: IntervalMap
    seed: Model  # extended with fresh symbols from equality rewriting
    reconstructions: list[tuple[str, Term]]


def product_to_intervals(product: ProductTerm, m: Model, rng: random.Random) -> ArrayPipelineResult:
    """Interval bounds for a product term with arrays and functions.

    Keys of the resulting map are integer variables and select-like terms,
    and the returned seed model covers any fresh symbols introduced by
    equality rewriting."""
    product, m, recipes = rewrite_array_equality(product, m)
    product = eliminate_select_store(product, m, rng)
    aliasing = build_aliasing(product, m)
    full = product + [lit for lit in aliasing.literals() if lit not in set(product)]
    grounded, grounded_model, table = ground(full, m)
    iv = _int_product_to_intervals(grounded, grounded_model)
    return ArrayPipelineResult(unground(iv, table), m, recipes)
