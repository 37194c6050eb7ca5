"""Epoch-based sampling loop.

Each epoch grabs a fresh seed model from the solver (randomized MAX-SMT or
blocking), extracts an implicant of the formula around the seed, shrinks it
to interval bounds, and then draws many cheap samples from the box.  Every
emitted sample is re-verified against the input formula and deduplicated
run-wide.  The blocking strategy keeps the negation of every box
(:class:`BlockingHistory`) to steer later seeds away from covered regions,
and stops once every model has been drawn.

Draws are flat tuples of values, one per declaration in declaration order
(:class:`SampleLayout`).  One routine, :func:`epoch_drawer`, supplies the
draws of every box: once per epoch it plans the draw (a clamped range per
key, the select-like keys sorted by nesting depth).  A box of at most
`samples_per_round` points, with no select-like key and no rebuilt array,
is then enumerated, each point once in a shuffled order, so that a point
box costs one draw.  Any other box is drawn at random: each draw writes
the integer values, the array cells and any rebuilt arrays straight into
the tuple.  Each tuple is checked by one positional predicate compiled once
per run and is its own dedup key (function values written as their default
and sorted exceptions); only a fresh sample becomes a :class:`Model`, one
``dict(zip(...))`` per sort group over the names and the slice (or
itemgetter) that the layout plans once (:meth:`SampleLayout.model`).

The Model-based chain :func:`sample_intervals` (or
:func:`sample_intervals_arrays`, one draw of :func:`epoch_drawer`) ->
:func:`restrict_to_problem` -> :func:`canonical_assignment` draws the same
random stream.  It stays as the reference of the tests and because the
benchmark's span tracer wraps these names.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from . import arrays as arrays_mod
from . import strengthen as strengthen_mod
from .compiled import compile_predicate
from .errors import (
    BoxsamplerError,
    ConfigError,
    NotAModel,
    SolverFailure,
    SoundnessViolation,
    UnassignedSymbol,
    UnsatFormula,
)
from .implicant import compute_implicant
from .intervals import IntervalMap, contains, neg_to_formula
from .smtlib import Declaration, ParsedProblem
from .solver import SolverClient, SolverRequest, VerdictKind
from .terms import (
    Add,
    Atom,
    Formula,
    FuncValue,
    IntConst,
    IntVar,
    Model,
    Mul,
    Rel,
    Sort,
    Sub,
    Term,
    eval_formula,  # noqa: F401 -- not called here; bench/tracer.py wraps sampler.eval_formula
    eval_term,
    free_symbols,
    is_select_like,
    iter_nodes,
    preprocess,
    to_nnf,
)


@dataclass
class SamplerConfig:
    strategy: str = "random"  # "random" | "blocking"
    total_time_limit: float = 900.0
    epoch_time_limit: float = 600.0
    max_samples: int | None = None
    rounds_per_epoch: int = 10
    samples_per_round: int = 1000
    unique_rate_threshold: float = 0.05
    random_bound: int = 100
    unbounded_width: int = 10**6
    rng_seed: int = 0
    inject_seed: Model | None = None  # test hook: fixed first seed

    def __post_init__(self):
        if self.strategy not in ("random", "blocking"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.total_time_limit <= 0 or self.epoch_time_limit <= 0:
            raise ConfigError("time limits must be positive")
        if self.rounds_per_epoch < 1 or self.samples_per_round < 1:
            raise ConfigError("rounds per epoch and samples per round must be at least 1")
        if self.max_samples is not None and self.max_samples < 0:
            raise ConfigError("max samples must not be negative")
        if self.random_bound < 0 or self.unbounded_width < 0:
            raise ConfigError("random bound and unbounded width must not be negative")
        if not 0.0 <= self.unique_rate_threshold <= 1.0:
            raise ConfigError("unique-rate threshold must lie in [0, 1]")


@dataclass
class EpochStats:
    rounds_run: int = 0
    unique_rate: float = 0.0
    draws: int = 0  # each a fresh sample, a duplicate or a clash (no vector)
    duplicates: int = 0
    clashes: int = 0
    enumerated: bool = False  # every point of the box drawn once (exploit_epoch)


@dataclass
class EpochResult:
    seed: Model
    intervals: IntervalMap
    fresh_samples: list[Model]
    stats: EpochStats


@dataclass
class RunStats:
    epochs: int = 0
    solver_calls: int = 0
    maxsmt_degradations: int = 0
    unique_samples: int = 0
    draws: int = 0
    duplicates: int = 0
    clashes: int = 0
    enumerated_epochs: int = 0
    blocking_resets: int = 0
    raw_coverage: float | None = None
    probabilistic_dedup: bool = False
    stop_reason: str = ""
    wall_time: dict[str, float] = field(default_factory=dict)


_DEDUP_CAP = 1_000_000  # exact keys a run keeps before it stores digests


class DedupSet:
    """Run-wide uniqueness filter.  Exact until `cap` entries, after which
    stored keys are replaced by 128-bit digests (collisions astronomically
    unlikely but possible; flagged in run stats)."""

    def __init__(self, cap: int):
        self.cap = cap
        self.keys: set = set()
        self.probabilistic = False

    def add(self, key: tuple) -> bool:
        stored = self._digest(key) if self.probabilistic else key
        if stored in self.keys:
            return False
        self.keys.add(stored)
        if not self.probabilistic and len(self.keys) >= self.cap:
            self.keys = {self._digest(k) for k in self.keys}
            self.probabilistic = True
        return True

    @staticmethod
    def _digest(key: tuple) -> bytes:
        return hashlib.blake2b(repr(key).encode(), digest_size=16).digest()


def canonical_assignment(sample: Model) -> tuple:
    return (
        tuple(sorted(sample.ints.items())),
        tuple(sorted(sample.bools.items())),
        tuple(
            sorted(
                (name, fv.default, tuple(sorted(fv.exceptions.items())))
                for name, fv in sample.funcs.items()
            )
        ),
    )


# ---------------------------------------------------------------------------
# Seed procedures


class BlockingHistory:
    """The boxes that blocking seeds must leave.  Each box is negated once,
    when it is added; `declarations` holds the problem's declarations and
    then those of the symbols that only the negations name.

    `exhaustive` holds while every model inside a box of the history has
    been drawn: the problem declares Ints only, and each box bounds every
    one of them on both sides and was enumerated in full.  A blocking query
    that is unsat then means that every model has been drawn."""

    def __init__(self, problem: ParsedProblem):
        self.problem = problem
        decls = problem.declarations
        int_only = all(d.sort == Sort.INT for d in decls)
        self.int_keys = [IntVar(d.name) for d in decls] if int_only else None
        self.clear()

    def clear(self) -> None:
        self.negations: list[Formula] = []
        self.declarations = {d.name: d for d in self.problem.declarations}
        self.exhaustive = self.int_keys is not None

    def add(self, iv: IntervalMap, enumerated: bool = False) -> None:
        """Block the box `iv`, of whose points all (`enumerated`) or some
        were drawn."""
        if self.exhaustive:
            bounds = [iv.entries.get(key) for key in self.int_keys]
            self.exhaustive = enumerated and all(b and b.lo is not None and b.hi is not None for b in bounds)
        negation = neg_to_formula(iv)
        self.negations.append(negation)
        for name, sort in free_symbols(negation).items():
            self.declarations.setdefault(name, Declaration(name, sort))


def get_seed_random(
    problem: ParsedProblem,
    formula: Formula,
    client: SolverClient,
    cfg: SamplerConfig,
    rng: random.Random,
    stats: RunStats,
    deadline: float | None = None,
) -> tuple[Model, bool]:
    """Seed via MAX-SMT: the formula is hard, equality of every int variable
    to a uniformly random value in [-B, B] is soft.  A MAX-SMT query
    answered unknown is asked again as a plain solve.  Returns the seed and
    whether the soft constraints were dropped; each query is counted in
    `stats.solver_calls` as it is made, one that fails included."""
    soft = [
        (Atom(Rel.EQ, IntVar(d.name), IntConst(rng.randint(-cfg.random_bound, cfg.random_bound))), 1)
        for d in problem.declarations
        if d.sort == Sort.INT
    ]
    req = SolverRequest(list(problem.declarations), [formula], soft, deadline)
    stats.solver_calls += 1
    verdict = client.max_solve(req)
    if verdict.kind == VerdictKind.UNKNOWN:
        stats.solver_calls += 1
        verdict = client.solve(SolverRequest(req.declarations, req.hard, [], deadline))
        verdict.degraded = True
    if verdict.kind == VerdictKind.UNSAT:
        raise UnsatFormula("input formula is unsatisfiable")
    if not verdict.is_sat:
        raise SolverFailure(verdict.reason or verdict.kind.value)
    return verdict.model, verdict.degraded


def get_seed_blocking(
    formula: Formula,
    client: SolverClient,
    history: BlockingHistory,
    stats: RunStats,
    deadline: float | None = None,
) -> tuple[Model | None, bool]:
    """Seed outside every box of the history; on failure the history is
    cleared and the search restarts from the plain formula.  Returns the
    seed and whether a reset happened; each query is counted in
    `stats.solver_calls` as it is made.  The seed is None when no model is
    left outside an exhaustive history (:attr:`BlockingHistory.exhaustive`):
    every model has been drawn."""
    req = SolverRequest(list(history.declarations.values()), [formula, *history.negations], [], deadline)
    stats.solver_calls += 1
    verdict = client.solve(req)
    if verdict.is_sat:
        return verdict.model, False
    if verdict.kind == VerdictKind.UNSAT and history.exhaustive and history.negations:
        return None, False
    if verdict.kind not in (VerdictKind.UNSAT, VerdictKind.UNKNOWN):
        raise SolverFailure(verdict.reason or verdict.kind.value)
    history.clear()
    stats.solver_calls += 1
    verdict = client.solve(SolverRequest(list(history.problem.declarations), [formula], [], deadline))
    if verdict.kind == VerdictKind.UNSAT:
        raise UnsatFormula("input formula is unsatisfiable")
    if not verdict.is_sat:
        raise SolverFailure(verdict.reason or verdict.kind.value)
    return verdict.model, True


# ---------------------------------------------------------------------------
# Interval sampling


def _clamp(interval, at: int, width: int) -> tuple[int, int]:
    """`(lo, points)`: the draw range of `interval`, each open side `width`
    away from the seed value `at`."""
    lo = interval.lo if interval.lo is not None else at - width
    hi = interval.hi if interval.hi is not None else at + width
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return lo, hi - lo + 1


def sample_intervals(iv: IntervalMap, seed: Model, cfg: SamplerConfig, rng: random.Random) -> Model:
    """Draw one assignment from an integer-only interval map.  Unbounded
    endpoints are clamped to the seed value plus/minus the configured width;
    variables without an interval keep their seed value.  The reference for
    the integer draws of :func:`epoch_drawer`."""
    ints = dict(seed.ints)
    for key, interval in iv.entries.items():
        assert isinstance(key, IntVar), "integer-only sampling requires variable keys"
        lo, points = _clamp(interval, seed.int_value(key.name), cfg.unbounded_width)
        ints[key.name] = rng.randint(lo, lo + points - 1)
    return Model(ints=ints, bools=dict(seed.bools), funcs={n: f.copy() for n, f in seed.funcs.items()})


def _plan(iv: IntervalMap, seed: Model, width: int) -> tuple[list, list]:
    """The draw plan of a box, made once per epoch: the integer steps
    ``(name, lo, points)`` in key order, and the steps of the select-like
    keys, ``(symbol, index term, interval, lo, points)``, in increasing
    number of accesses nested in the index, so that inner accesses resolve
    before the keys that read them.  Ranges are clamped around the seed
    value of each key."""
    int_steps = []
    nested = []
    for key, interval in iv.entries.items():
        if isinstance(key, IntVar):
            int_steps.append((key.name, *_clamp(interval, seed.int_value(key.name), width)))
        else:
            depth = sum(1 for t in iter_nodes(key.index) if is_select_like(t))
            step = (key.array.name, key.index, interval, *_clamp(interval, eval_term(key, seed), width))
            nested.append((depth, step))
    nested.sort(key=lambda pair: pair[0])
    return int_steps, [step for _, step in nested]


def _eval_index(t: Term, slot: dict[str, int], values: list, cells: dict[str, dict[int, int]], seed: Model) -> int:
    """The value of an index term within a draw: a variable reads its slot
    of `values`, an access reads the cell its index reaches.  A cell that no
    key has drawn takes the access's value under `seed`, and keeps it for
    the draw."""
    if is_select_like(t):
        index = _eval_index(t.index, slot, values, cells, seed)
        bucket = cells.setdefault(t.array.name, {})
        if index not in bucket:
            bucket[index] = eval_term(t, seed)
        return bucket[index]
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, IntVar):
        try:
            return values[slot[t.name]]
        except KeyError:
            raise UnassignedSymbol(t.name) from None
    if isinstance(t, Add):
        return sum(_eval_index(a, slot, values, cells, seed) for a in t.args)
    if isinstance(t, Sub):
        return _eval_index(t.lhs, slot, values, cells, seed) - _eval_index(t.rhs, slot, values, cells, seed)
    if isinstance(t, Mul):
        prod = 1
        for a in t.args:
            prod *= _eval_index(a, slot, values, cells, seed)
        return prod
    raise TypeError(f"cannot evaluate term of type {type(t).__name__}")


def _seed_declarations(seed: Model, known=()) -> list[Declaration]:
    """Declarations of the symbols of `seed` that are not in `known`."""
    return (
        [Declaration(name, Sort.INT) for name in seed.ints if name not in known]
        + [Declaration(name, Sort.BOOL) for name in seed.bools if name not in known]
        + [Declaration(name, Sort.ARRAY) for name in seed.funcs if name not in known]
    )


def sample_intervals_arrays(
    iv: IntervalMap,
    seed: Model,
    cfg: SamplerConfig,
    rng: random.Random,
    reconstructions: list[tuple[str, Term]] | None = None,
) -> Model | None:
    """Draw one assignment from an interval map with select-like keys, or
    None on a clash: one draw of :func:`epoch_drawer` over a layout of the
    seed's own symbols."""
    layout = SampleLayout(_seed_declarations(seed))
    draw, _ = epoch_drawer(iv, seed, layout, cfg, rng, reconstructions=reconstructions)
    values = draw()
    return None if values is None else layout.model(values)


# ---------------------------------------------------------------------------
# Epoch exploitation


def restrict_to_problem(sample: Model, problem: ParsedProblem) -> Model:
    out = Model()
    for d in problem.declarations:
        if d.sort == Sort.ARRAY:
            fv = sample.funcs.get(d.name, FuncValue(0))
            out.funcs[d.name] = fv.copy()
        elif d.sort == Sort.INT:
            out.ints[d.name] = sample.ints.get(d.name, 0)
        else:
            out.bools[d.name] = sample.bools.get(d.name, False)
    return out


# The value of a symbol a sample omits, by sort; function values are never
# changed in place, so one constant-0 function serves every sample.
_ZERO = {Sort.INT: 0, Sort.BOOL: False, Sort.ARRAY: FuncValue(0)}


def _func_from_json(name: str, value) -> FuncValue:
    """An array or function value from its JSON default/exceptions object.
    An index is read only when written as `cli run` writes it, ``str(i)``:
    no sign, leading zero, blank, underscore or non-ASCII digit, so that no
    two indices can name the same cell."""
    try:
        default, exceptions = value.get("default", 0), value.get("exceptions", {})
        if type(default) is int and all(type(v) is int for v in exceptions.values()):
            cells = {i: v for k, v in exceptions.items() if str(i := int(k)) == k}
            if len(cells) == len(exceptions):  # no index dropped as not canonical
                return FuncValue(default, cells)
    except (AttributeError, ValueError):  # no object, or an index that is no integer
        pass
    raise BoxsamplerError(
        f"array symbol {name!r} needs a default/exceptions object of integers, "
        f"indexed by canonical decimals, not {value!r}"
    )


def _getter(slots: list[int]):
    """`get(vector)`: the values at the ascending `slots`, as one slice when
    they are contiguous (or none) and by index otherwise."""
    if len(slots) > 1 and slots[-1] - slots[0] >= len(slots):
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[-1] + 1) if slots else slice(0))


class SampleLayout:
    """A sample of a problem as a flat tuple of values, one per declaration
    in declaration order: ints, bools, and :class:`FuncValue` objects for
    arrays and functions."""

    def __init__(self, declarations: list[Declaration]):
        self.declarations = list(declarations)
        self.names = [d.name for d in declarations]
        self.slot = {name: i for i, name in enumerate(self.names)}
        self.sorts = [d.sort for d in declarations]
        self.zeros = tuple(_ZERO[sort] for sort in self.sorts)
        slots: dict[Sort, list[int]] = {Sort.INT: [], Sort.BOOL: [], Sort.ARRAY: []}
        for i, sort in enumerate(self.sorts):
            slots[sort].append(i)
        self.funcs = [(self.names[i], i) for i in slots[Sort.ARRAY]]
        # the plan of model(): per sort group, its names and its values' getter
        self._groups = tuple((tuple(self.names[i] for i in group), _getter(group)) for group in slots.values())

    def predicate(self, formula: Formula):
        """`pred(*values)`: the truth value of `formula` under a vector."""
        return compile_predicate([formula], self.names)

    def vector(self, sample: Model) -> tuple:
        """The values of the declared symbols in `sample`; a missing one is
        0, false or the constant-0 function, as in :func:`restrict_to_problem`."""
        fields = {Sort.INT: sample.ints, Sort.BOOL: sample.bools, Sort.ARRAY: sample.funcs}
        return tuple(fields[sort].get(name, _ZERO[sort]) for name, sort in zip(self.names, self.sorts))

    def from_json(self, obj: dict) -> tuple:
        """The vector of a JSON assignment as `cli run` writes samples: an
        integer or truth value per scalar symbol, a default/exceptions object
        of integers per array or function; an omitted symbol is 0, false or
        the constant-0 function, as in :meth:`vector`.  A value of another
        JSON type raises :class:`BoxsamplerError`."""
        if not isinstance(obj, dict):
            raise BoxsamplerError("an assignment must be a JSON object")
        zeros = self.zeros
        values = list(zeros)
        slot, sorts = self.slot, self.sorts
        for name, value in obj.items():
            i = slot.get(name)
            if i is None:
                raise BoxsamplerError(f"unknown symbol {name!r} in assignment")
            if type(value) is type(zeros[i]):  # int for an Int and bool for a Bool: true is no Int
                values[i] = value
            elif sorts[i] is Sort.ARRAY:
                values[i] = _func_from_json(name, value)
            else:
                shape = "an integer" if sorts[i] is Sort.INT else "true or false"
                raise BoxsamplerError(f"{sorts[i].value} symbol {name!r} needs {shape}, not {value!r}")
        return tuple(values)

    def key(self, values: tuple) -> tuple:
        """Dedup key of a vector: itself, with each function value written
        as (default, sorted exceptions)."""
        key = list(values)
        for _, i in self.funcs:
            fv = key[i]
            key[i] = (fv.default, tuple(sorted(fv.exceptions.items())))
        return tuple(key)

    def model(self, values) -> Model:
        """The :class:`Model` of a vector (a tuple or a list).  Each sort
        group's names and getter are planned with the layout, so a dict is
        one ``dict(zip(names, get(values)))``: fresh, in declaration order,
        and a fresh ``{}`` for an empty group."""
        (ints, get_ints), (bools, get_bools), (funcs, get_funcs) = self._groups
        return Model(
            dict(zip(ints, get_ints(values))) if ints else {},
            dict(zip(bools, get_bools(values))) if bools else {},
            dict(zip(funcs, get_funcs(values))) if funcs else {},
        )


def epoch_drawer(
    iv: IntervalMap,
    seed: Model,
    layout: SampleLayout,
    cfg: SamplerConfig,
    rng: random.Random,
    *,
    reconstructions: list[tuple[str, Term]] | None = None,
    enumerate_up_to: int = 0,
) -> tuple[Callable[[], tuple | None], int]:
    """`(draw, volume)`: `draw()` is one vector of `layout` drawn from the
    box `iv`, or None on a clash (an array cell already set outside a key's
    interval).

    A box with no select-like key and no reconstruction has a volume: the
    product of the points of its integer steps.  When that volume V is at
    most `enumerate_up_to`, the box is enumerated: the first V calls of
    `draw()` return each of its points once, in an order shuffled with
    `rng` (a single point takes no random number), and `volume` is V.
    Otherwise `volume` is 0 and every draw is random, as follows.

    The draw is planned once (:func:`_plan`) over a frame of slots: the
    layout's declared symbols, then the seed's other symbols (the fresh
    names of array-equality rewriting, and keys that are not declared).  A
    draw writes the integer steps, then the select-like steps, so that each
    array or function becomes its seed default with the cells of the draw
    as exceptions.  The `reconstructions` then rebuild the arrays that
    equality rewriting substituted, over a :class:`Model` built only when
    there are any.  The draw returns the declared prefix of the frame.

    Each value is ``lo + r``, where ``r`` is the first of
    ``rng.getrandbits(points.bit_length())`` below `points`: the bits and
    the rejection loop of ``rng.randint``, so a draw equals
    ``layout.vector(restrict_to_problem(d, problem))`` of the draw ``d`` of
    :func:`sample_intervals` (a box without select-like keys) and consumes
    the same random numbers; that reference chain stays for the tests and
    the benchmark's span tracer, not for sampling."""
    undeclared = _seed_declarations(seed, layout.slot)
    frame = SampleLayout(layout.declarations + undeclared) if undeclared else layout
    slot = frame.slot
    int_steps, access_steps = _plan(iv, seed, cfg.unbounded_width)
    int_plan = [(slot[name], lo, points, points.bit_length()) for name, lo, points in int_steps]
    access_plan = [(*rest, points, points.bit_length()) for *rest, points in access_steps]
    values = list(frame.vector(seed))
    arrays = [(name, i, values[i].default) for name, i in frame.funcs]
    recipes = [(name, term, slot[name]) for name, term in reversed(reconstructions or [])]
    n = len(layout.names)
    exact = len(values) == n

    volume = 0 if access_plan or recipes else math.prod(points for _, _, points, _ in int_plan)
    if 0 < volume <= enumerate_up_to:
        for _, i, default in arrays:  # no select-like key sets a cell
            values[i] = FuncValue(default, {})
        slots = [i for i, *_ in int_plan]
        order = list(itertools.product(*(range(lo, lo + points) for _, lo, points, _ in int_plan)))
        rng.shuffle(order)
        next_point = iter(order).__next__

        def visit():
            for i, value in zip(slots, next_point()):
                values[i] = value
            return tuple(values) if exact else tuple(values[:n])

        return visit, volume

    getrandbits = rng.getrandbits

    def draw():
        for i, lo, points, k in int_plan:
            r = getrandbits(k)
            while r >= points:
                r = getrandbits(k)
            values[i] = lo + r
        if arrays:
            cells: dict[str, dict[int, int]] = {}
            for symbol, index, interval, lo, points, k in access_plan:
                at = _eval_index(index, slot, values, cells, seed)
                bucket = cells.setdefault(symbol, {})
                if at not in bucket:
                    r = getrandbits(k)
                    while r >= points:
                        r = getrandbits(k)
                    bucket[at] = lo + r
                elif not interval.member(bucket[at]):
                    return None
            for name, i, default in arrays:
                values[i] = FuncValue(default, cells.get(name, {}))
            if recipes:
                sample = frame.model(values)
                for name, term, i in recipes:
                    values[i] = sample.funcs[name] = eval_term(term, sample)
        return tuple(values) if exact else tuple(values[:n])

    return draw, 0


def exploit_epoch(
    iv: IntervalMap,
    seed: Model,
    pred: Callable[..., bool],
    layout: SampleLayout,
    dedup: DedupSet,
    cfg: SamplerConfig,
    rng: random.Random,
    *,
    reconstructions: list[tuple[str, Term]] | None = None,
    deadline: float | None = None,
    remaining_budget: int | None = None,
) -> EpochResult:
    """Run up to n sampling rounds of k draws, stopping early when the rate
    of new unique samples in a round drops below the threshold.  A box of at
    most k points is enumerated instead (:func:`epoch_drawer`): one round
    of V draws visits each of its V points once, and `stats.enumerated`
    says whether the round ran to its end.  Each draw is a vector of the
    run's `layout`, checked with `pred`, the input formula compiled by
    :meth:`SampleLayout.predicate`, and deduplicated by its key; only fresh
    samples become Models.  The deadline and the budget cut a round short."""
    draw, volume = epoch_drawer(
        iv, seed, layout, cfg, rng, reconstructions=reconstructions, enumerate_up_to=cfg.samples_per_round
    )
    rounds, per_round = (1, volume) if volume else (cfg.rounds_per_epoch, cfg.samples_per_round)
    key_of = layout.key if layout.funcs else None
    model_of = layout.model
    add = dedup.add
    fresh: list[Model] = []
    stats = EpochStats()
    epoch_deadline = time.monotonic() + cfg.epoch_time_limit
    if deadline is not None:
        epoch_deadline = min(epoch_deadline, deadline)
    done = False
    for _ in range(rounds):
        new_in_round = 0
        drawn = per_round  # unless the round stops early
        for i in range(per_round):
            if i % 64 == 0 and time.monotonic() > epoch_deadline:
                done, drawn = True, i
                break
            values = draw()
            if values is None:
                stats.clashes += 1
                continue
            if not pred(*values):
                raise SoundnessViolation(
                    f"sample violates the formula: {canonical_assignment(model_of(values))!r}"
                )
            if add(values if key_of is None else key_of(values)):
                fresh.append(model_of(values))
                new_in_round += 1
                if remaining_budget is not None and len(fresh) >= remaining_budget:
                    done, drawn = True, i + 1
                    break
        stats.rounds_run += 1
        stats.draws += drawn
        stats.unique_rate = new_in_round / per_round
        if done or stats.unique_rate < cfg.unique_rate_threshold:
            break
    stats.duplicates = stats.draws - stats.clashes - len(fresh)
    stats.enumerated = volume > 0 and stats.draws == volume
    return EpochResult(seed=seed, intervals=iv, fresh_samples=fresh, stats=stats)


# ---------------------------------------------------------------------------
# Main loop


def _check_injected(seed: Model, formula: Formula, layout: SampleLayout, pred) -> None:
    """Reject an injected seed that leaves a symbol of `formula` unassigned
    or does not satisfy it."""
    assigned = {Sort.INT: seed.ints, Sort.BOOL: seed.bools, Sort.ARRAY: seed.funcs}
    for name, sort in free_symbols(formula).items():
        if name not in assigned[sort]:
            raise UnassignedSymbol(name)
    if not pred(*layout.vector(seed)):
        raise NotAModel("injected seed does not satisfy the formula")


def sample_formula(
    problem: ParsedProblem,
    cfg: SamplerConfig,
    client: SolverClient | None,
    rng: random.Random | None = None,
    on_sample=None,
    on_epoch=None,
) -> RunStats:
    """Sample distinct models of `problem` until a limit is hit.

    `on_sample(model)` fires for every fresh verified sample; `on_epoch`
    receives each EpochResult.  Returns aggregate statistics, whose
    `wall_time` holds the seconds of each phase and the "total": setup
    (preprocessing, the predicate compile and the blocking history), solve
    (with the loop head), implicant, strengthen (with the seed's containment
    check), sample (with the box's negation under blocking), and emit (the
    two callbacks).  The phases are contiguous laps of one clock, so they
    sum to the total.  Under blocking, a run that has drawn every model
    stops with `stop_reason` "exhausted" (:class:`BlockingHistory`).  Each
    solver query carries the run's deadline and counts in `solver_calls`,
    whether it answers or fails; one that fails once the deadline has
    passed stops the run with "total time limit".  A solver
    failure before the deadline raises :class:`SolverFailure` if no epoch
    has run yet, and otherwise stops the run with "solver failure: <reason>",
    so that the samples already taken keep their stats.  On Ctrl-C it stops
    with "interrupted", and `unique_samples` counts the samples `on_sample`
    took."""
    rng = rng or random.Random(cfg.rng_seed)
    stats = RunStats()
    phase = dict.fromkeys(("setup", "solve", "implicant", "strengthen", "sample", "emit"), 0.0)
    t_start = t_lap = time.monotonic()
    running = "setup"
    deadline = t_start + cfg.total_time_limit

    def lap(following: str) -> float:
        """End the running phase's lap now and start `following`'s."""
        nonlocal t_lap, running
        now = time.monotonic()
        phase[running] += now - t_lap
        t_lap, running = now, following
        return now

    formula = to_nnf(preprocess(problem.assertion))
    layout = SampleLayout(problem.declarations)
    pred = layout.predicate(formula)
    dedup = DedupSet(_DEDUP_CAP)
    history = BlockingHistory(problem) if cfg.strategy == "blocking" else None
    injected = cfg.inject_seed

    try:
        while True:
            if lap("solve") > deadline:
                stats.stop_reason = "total time limit"
                break
            if cfg.max_samples is not None and stats.unique_samples >= cfg.max_samples:
                stats.stop_reason = "max samples"
                break

            if injected is not None:
                seed = injected
                injected = None
                _check_injected(seed, formula, layout, pred)
            elif client is None:
                stats.stop_reason = "no solver configured"
                break
            else:
                try:
                    if history is not None:
                        seed, was_reset = get_seed_blocking(formula, client, history, stats, deadline)
                        stats.blocking_resets += was_reset
                    else:
                        seed, degraded = get_seed_random(problem, formula, client, cfg, rng, stats, deadline)
                        stats.maxsmt_degradations += degraded
                except SolverFailure as exc:
                    if time.monotonic() >= deadline:
                        stats.stop_reason = "total time limit"  # the query was cut off at the run's deadline
                    elif stats.epochs:
                        stats.stop_reason = f"solver failure: {exc}"
                    else:
                        raise
                    break
                if seed is None:
                    stats.stop_reason = "exhausted"
                    break

            lap("implicant")
            product = compute_implicant(formula, seed, rng)

            lap("strengthen")
            reconstructions: list[tuple[str, Term]] = []
            if layout.funcs:
                result = arrays_mod.product_to_intervals(product, seed, rng)
                iv, seed, reconstructions = result.intervals, result.seed, result.reconstructions
            else:
                iv = strengthen_mod.product_to_intervals(product, seed)
            if not contains(iv, seed):
                raise SoundnessViolation("seed fell outside its own interval box")

            lap("sample")
            remaining = None if cfg.max_samples is None else cfg.max_samples - stats.unique_samples
            epoch = exploit_epoch(
                iv,
                seed,
                pred,
                layout,
                dedup,
                cfg,
                rng,
                reconstructions=reconstructions,
                deadline=deadline,
                remaining_budget=remaining,
            )
            stats.epochs += 1
            stats.draws += epoch.stats.draws
            stats.duplicates += epoch.stats.duplicates
            stats.clashes += epoch.stats.clashes
            stats.enumerated_epochs += epoch.stats.enumerated
            if history is not None:
                history.add(iv, epoch.stats.enumerated)

            lap("emit")
            for sample in epoch.fresh_samples:
                if on_sample is not None:
                    on_sample(sample)
                stats.unique_samples += 1  # once handed over, so that an interrupt leaves it exact
            if on_epoch is not None:
                on_epoch(epoch)
    except KeyboardInterrupt:
        stats.stop_reason = "interrupted"

    phase["total"] = lap(running) - t_start  # the stopping loop head or the interrupted phase
    stats.probabilistic_dedup = dedup.probabilistic
    stats.wall_time = phase
    return stats
