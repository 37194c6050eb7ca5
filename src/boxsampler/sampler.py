"""Epoch-based sampling loop.

Each epoch grabs a fresh seed model from the solver (randomized MAX-SMT or
blocking), extracts an implicant of the formula around the seed, shrinks it
to interval bounds, and then draws many cheap samples from the box.  Every
emitted sample is re-verified against the input formula and deduplicated
run-wide, and the fresh ones leave the epoch in chunks: every 64 draws, and
once when the epoch ends, so that the first sample does not wait for the
whole epoch and a run stopped inside an epoch keeps what it has handed
over.  The blocking strategy keeps the negation of every box
(:class:`BlockingHistory`) to steer later seeds away from covered regions,
sends the query for the next seed while the box is drawn, and stops once
every model has been drawn.

Draws are flat tuples of values, one per declaration in declaration order
(:class:`SampleLayout`).  One routine, :func:`epoch_drawer`, supplies the
draws of every box: once per epoch it plans the draw (a clamped range per
key, the select-like keys sorted by nesting depth, and the slot each key's
index is read from: a declared Int's, a constant's or an earlier key's
read).  A box of at most `samples_per_round` points, with no select-like
key and no rebuilt array, is then enumerated, each point once in a
shuffled order, so that a point box costs one draw.  Any other box is
drawn at random.  Each tuple is checked by one positional predicate
compiled once per run and is its own dedup key, since a function value
hashes by value (:class:`FuncValue`); only a fresh sample becomes a
:class:`Model`, built from one dict display per sort group.

The draws run in chunks of up to 64 through one generated loop per draw
plan shape (:func:`_chunk_factory`): the layout's sorts, the slots that the
integer steps write, in step order, and whether the box is enumerated or
has select-like steps.  The loop unrolls the integer steps, calls the
predicate, tests the run's key set inline and builds the fresh Models, with
no other Python function call per draw; the select-like steps and rebuilt
arrays of a box stay one per-epoch function that it calls.  The text depends on the shape
alone, so it is compiled once per shape, and each epoch binds its ranges
and the layout's names as closure variables, since a quoted symbol may
hold any text.

The Model-based chain :func:`sample_intervals` (or
:func:`sample_intervals_arrays`, a one-draw chunk of :func:`epoch_drawer`)
-> :func:`restrict_to_problem` -> :func:`canonical_assignment` draws the
same random stream.  It stays as the reference of the tests and because
the benchmark's span tracer wraps these names.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field
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
    TimeLimit,
    UnassignedSymbol,
    UnsatFormula,
)
from .implicant import compute_implicant
from .intervals import IntervalMap, contains, neg_to_formula
from .smtlib import Declaration, ParsedProblem
from .solver import SolverClient, SolverRequest, SolverVerdict, VerdictKind
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
    ZERO,
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
    epoch_time_limit: float = 600.0  # the time in `on_sample` of the epoch's samples counts too
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
        if not (self.total_time_limit > 0 and self.epoch_time_limit > 0):  # false for NaN too
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
    """An epoch's seed, box, counts and fresh samples: every sample that the
    epoch handed over in its 64-draw chunks, in the order drawn."""

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


def _digest(key: tuple) -> bytes:
    # equal function values may differ in the order, so the repr, of their exceptions
    key = tuple((v.default, tuple(sorted(v.exceptions.items()))) if v.__class__ is FuncValue else v for v in key)
    return hashlib.blake2b(repr(key).encode(), digest_size=16).digest()


class _Digests(set):
    """A set of 128-bit key digests whose `add` stores the digest of a key."""

    def add(self, key: tuple) -> None:
        set.add(self, _digest(key))


class DedupSet:
    """Run-wide uniqueness filter.  `keys` holds the keys exactly until it
    has `cap` of them; :meth:`settle` then replaces it by a set of 128-bit
    digests (collisions astronomically unlikely but possible; flagged in run
    stats) whose `add` takes a key, so a key is fresh iff `keys.add(key)`
    grows the set, whichever set it is.  The sampling loop adds to `keys`
    inline, so it stops once :meth:`room` fresh keys are in and settles the
    set before it draws on."""

    def __init__(self, cap: int):
        self.cap = cap
        self.keys: set = set()
        self.probabilistic = False

    def add(self, key: tuple) -> bool:
        keys = self.keys
        size = len(keys)
        keys.add(key)  # one hash: fresh iff the set grew
        if len(keys) == size:
            return False
        self.settle()
        return True

    def room(self) -> float:
        """The fresh keys the set takes before it must settle."""
        return math.inf if self.probabilistic else self.cap - len(self.keys)

    def settle(self) -> None:
        """Switch to digests once the exact set holds `cap` keys."""
        if not self.probabilistic and len(self.keys) >= self.cap:
            self.keys = _Digests(map(_digest, self.keys))
            self.probabilistic = True


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
    one of them on both sides and was enumerated in full.  A box is added
    before its draws, so that the next query can be sent while they run,
    and :meth:`drawn_in_full` tells afterwards that all of its points were
    drawn.  A blocking query that is unsat then means that every model has
    been drawn."""

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
        self._exhaustive_once_drawn = False  # `exhaustive` once the last box added is drawn in full

    def add(self, iv: IntervalMap) -> None:
        """Block the box `iv`; `exhaustive` fails until :meth:`drawn_in_full`."""
        self._exhaustive_once_drawn = self.exhaustive and all(
            (b := iv.entries.get(key)) and b.lo is not None and b.hi is not None for key in self.int_keys
        )
        self.exhaustive = False
        negation = neg_to_formula(iv)
        self.negations.append(negation)
        declared = self.declarations
        # a box over declared Ints names no new symbol, so its negation is not walked
        if any(key.__class__ is not IntVar or key.name not in declared for key in iv.entries):
            for name, sort in free_symbols(negation).items():
                declared.setdefault(name, Declaration(name, sort))

    def drawn_in_full(self) -> None:
        """Every point of the box added last has been drawn."""
        self.exhaustive, self._exhaustive_once_drawn = self._exhaustive_once_drawn, False

    def request(self, formula: Formula, deadline: float | None = None) -> SolverRequest:
        """The query for a model of `formula` outside every box."""
        return SolverRequest(list(self.declarations.values()), [formula, *self.negations], [], deadline)


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
    return _seed_of(verdict), verdict.degraded


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
    `stats.solver_calls` as it is asked of `client`, which may have been
    sent it ahead (:meth:`SolverClient.prefetch`).  The seed is None when
    no model is left outside an exhaustive history
    (:attr:`BlockingHistory.exhaustive`): every model has been drawn."""
    stats.solver_calls += 1
    verdict = client.solve(history.request(formula, deadline))
    if verdict.is_sat:
        return verdict.model, False
    if verdict.kind == VerdictKind.UNSAT and history.exhaustive and history.negations:
        return None, False
    if verdict.kind not in (VerdictKind.UNSAT, VerdictKind.UNKNOWN):
        raise SolverFailure(verdict.reason or verdict.kind.value)
    history.clear()
    stats.solver_calls += 1
    verdict = client.solve(SolverRequest(list(history.problem.declarations), [formula], [], deadline))
    return _seed_of(verdict), True


def _seed_of(verdict: SolverVerdict) -> Model:
    """The model of `verdict` on the plain formula: raises `UnsatFormula`
    when it is unsat and `SolverFailure` when it is neither sat nor unsat."""
    if verdict.kind == VerdictKind.UNSAT:
        raise UnsatFormula("input formula is unsatisfiable")
    if not verdict.is_sat:
        raise SolverFailure(verdict.reason or verdict.kind.value)
    return verdict.model


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
        lo, points = _clamp(interval, seed.value(Sort.INT, key.name), cfg.unbounded_width)
        ints[key.name] = rng.randint(lo, lo + points - 1)
    return Model(ints=ints, bools=dict(seed.bools), funcs=dict(seed.funcs))


def _plan(iv: IntervalMap, seed: Model, width: int) -> tuple[list, list]:
    """The draw plan of a box, made once per epoch: the integer steps
    ``(name, lo, points)`` in key order, and the steps of the select-like
    keys, ``(key, symbol, index term, interval, lo, points)``, in increasing
    number of accesses nested in the index, so that inner accesses resolve
    before the keys that read them.  Ranges are clamped around the seed
    value of each key."""
    int_steps = []
    nested = []
    for key, interval in iv.entries.items():
        if isinstance(key, IntVar):
            int_steps.append((key.name, *_clamp(interval, seed.value(Sort.INT, key.name), width)))
        else:
            depth = sum(1 for t in iter_nodes(key.index) if is_select_like(t))
            step = (key, key.array.name, key.index, interval, *_clamp(interval, eval_term(key, seed), width))
            nested.append((depth, step))
    nested.sort(key=lambda pair: pair[0])
    return int_steps, [step for _, step in nested]


def _eval_index(
    t: Term, slot: dict[str, int], values: list, cells: dict[str, dict[int, int]], reads: dict, seed: Model
) -> int:
    """The value of an index term within a draw: a variable reads its slot
    of `values`, an access reads the cell its index reaches.  A cell that no
    key has drawn takes the access's value under `seed`, and keeps it for
    the draw.  A cell, once read or drawn, keeps its value for the draw, so
    `reads` keeps the value of each access read while one term is
    evaluated: a chain of n nested accesses costs n reads, not one per
    access it holds."""
    if is_select_like(t):
        value = reads.get(t)
        if value is None:
            index = _eval_index(t.index, slot, values, cells, reads, seed)
            bucket = cells.setdefault(t.array.name, {})
            if index not in bucket:
                bucket[index] = eval_term(t, seed)
            value = reads[t] = bucket[index]
        return value
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, IntVar):
        try:
            return values[slot[t.name]]
        except KeyError:
            raise UnassignedSymbol(t.name) from None
    if isinstance(t, Add):
        return sum(_eval_index(a, slot, values, cells, reads, seed) for a in t.args)
    if isinstance(t, Sub):
        return _eval_index(t.lhs, slot, values, cells, reads, seed) - _eval_index(t.rhs, slot, values, cells, reads, seed)
    if isinstance(t, Mul):
        prod = 1
        for a in t.args:
            prod *= _eval_index(a, slot, values, cells, reads, seed)
        return prod
    raise TypeError(f"cannot evaluate term of type {type(t).__name__}")


def _seed_declarations(seed: Model, known=()) -> list[Declaration]:
    """Declarations of the symbols of `seed` that are not in `known`."""
    return [Declaration(name, sort) for sort in Sort for name in seed.of(sort) if name not in known]


def sample_intervals_arrays(
    iv: IntervalMap,
    seed: Model,
    cfg: SamplerConfig,
    rng: random.Random,
    reconstructions: list[tuple[str, Term]] | None = None,
) -> Model | None:
    """Draw one assignment from an interval map with select-like keys, or
    None on a clash: a one-draw chunk of :func:`epoch_drawer` over a layout
    of the seed's own symbols, which takes every draw."""
    fresh: list[Model] = []
    layout = SampleLayout(_seed_declarations(seed))
    chunk, _ = epoch_drawer(iv, seed, layout, cfg, rng, lambda *values: True, fresh, reconstructions=reconstructions)
    chunk(1, set(), 0)
    return fresh[0] if fresh else None


# ---------------------------------------------------------------------------
# Epoch exploitation


def restrict_to_problem(sample: Model, problem: ParsedProblem) -> Model:
    out = Model()
    for d in problem.declarations:
        out.of(d.sort)[d.name] = sample.of(d.sort).get(d.name, ZERO[d.sort])
    return out


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


@functools.lru_cache(maxsize=256)
def _model_factory(sorts: tuple[Sort, ...]):
    """`factory(*names)`: the builder of :meth:`SampleLayout.model` for a
    layout of `sorts`, with the layout's `names` bound as closure variables
    ``_n0``, ``_n1``, ...  The generated text depends on the sorts alone, so
    it is compiled once per sort signature; no name enters it, since an
    SMT-LIB quoted symbol may hold a quote, a parenthesis or a newline."""
    n = len(sorts)
    source = (
        f"def factory({', '.join(f'_n{i}' for i in range(n))}):\n"
        f"    def model(values):\n"
        f"        {_tuple(f'v{i}' for i in range(n))} = values\n"
        f"        return Model({_displays(sorts, [f'v{i}' for i in range(n)])})\n"
        f"    return model\n"
    )
    env = {"Model": Model, "__builtins__": {}}
    exec(compile(source, "<layout model>", "exec"), env)  # source from the sorts only
    return env["factory"]


def _tuple(items) -> str:
    """The text of a tuple display or target of `items`."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _displays(sorts: tuple[Sort, ...], values: list[str]) -> str:
    """The text of the arguments of a :class:`Model` call: one dict display
    per sort group, mapping ``_n{i}`` to ``values[i]`` in declaration order."""
    groups: dict[Sort, list[str]] = {Sort.INT: [], Sort.BOOL: [], Sort.ARRAY: []}
    for i, sort in enumerate(sorts):
        groups[sort].append(f"_n{i}: {values[i]}")
    return ", ".join("{" + ", ".join(group) + "}" for group in groups.values())


@functools.lru_cache(maxsize=256)
def _chunk_factory(sorts: tuple[Sort, ...], slots: tuple[int, ...], mode: str):
    """`bind(names, consts, steps, pred, append, *, getrandbits, next_point,
    values, fill)`: the chunk loop of :func:`epoch_drawer` for a layout of
    `sorts` whose integer steps write the frame slots `slots`, in step
    order.  `bind` takes the epoch's values and returns `chunk` (see
    :func:`epoch_drawer`); they are closure variables, never written into
    the text, which depends on the shape alone and is compiled once per
    shape.

    - `names`: the layout's names, ``_n0``, ``_n1``, ...
    - `consts`: in modes "random" and "enumerate", the value of each layout
      slot that no integer step writes, in slot order (``c{i}``).
    - `steps`: ``lo, points, points.bit_length()`` of each integer step.

    A step's value is ``v{slot}``, drawn by `getrandbits` ("random"), taken
    from `next_point()` with the other steps' ("enumerate"), or written to
    the frame list `values` before `fill()` draws the array cells and
    returns the layout's vector, or None on a clash ("arrays")."""
    n = len(sorts)
    drawn = set(slots)
    value = [f"v{i}" if mode == "arrays" or i in drawn else f"c{i}" for i in range(n)]
    out = [
        "def bind(names, consts, steps, pred, append, *, getrandbits=None, next_point=None, values=None, fill=None):",
        f"    {_tuple(f'_n{i}' for i in range(n))} = names",
        f"    {_tuple(v for v in value if v[0] == 'c')} = consts",
        f"    {_tuple(f'lo{j}, p{j}, k{j}' for j in range(0 if mode == 'enumerate' else len(slots)))} = steps",
        "    def chunk(count, keys, last):",
        "        add = keys.add",
        "        clashes = 0",
        "        for i in range(count):",
    ]
    if mode == "enumerate":
        out.append(f"            {_tuple(f'v{s}' for s in slots)} = next_point()")
    else:
        for j, s in enumerate(slots):
            out += [
                f"            while (r := getrandbits(k{j})) >= p{j}:",
                "                pass",
                f"            {f'values[{s}]' if mode == 'arrays' else f'v{s}'} = lo{j} + r",
            ]
    if mode == "arrays":
        out += [
            "            key = fill()",
            "            if key is None:",
            "                clashes += 1",
            "                continue",
            f"            {_tuple(value)} = key",
        ]
    else:
        out.append(f"            key = {_tuple(value)}")
    out += [
        f"            if not pred({', '.join(value)}):",
        "                return i, clashes, key",
        "            size = len(keys)",
        "            add(key)",
        "            if len(keys) != size:",
        f"                append(Model({_displays(sorts, value)}))",
        "                if size >= last:",
        "                    return i + 1, clashes, None",
        "        return count, clashes, None",
        "    return chunk",
    ]
    env = {"Model": Model, "len": len, "range": range, "__builtins__": {}}
    exec(compile("\n".join(out) + "\n", "<chunk loop>", "exec"), env)  # source from the shape only
    return env["bind"]


class SampleLayout:
    """A sample of a problem as a flat tuple of values, one per declaration
    in declaration order: ints, bools, and :class:`FuncValue` objects for
    arrays and functions."""

    def __init__(self, declarations: list[Declaration]):
        self.declarations = list(declarations)
        self.names = [d.name for d in declarations]
        self.slot = {name: i for i, name in enumerate(self.names)}
        self.sorts = [d.sort for d in declarations]
        self.zeros = tuple(ZERO[sort] for sort in self.sorts)
        self.funcs = [(name, i) for i, (name, sort) in enumerate(zip(self.names, self.sorts)) if sort is Sort.ARRAY]

    def predicate(self, formula: Formula):
        """`pred(*values)`: the truth value of `formula` under a vector."""
        return compile_predicate([formula], self.names)

    def vector(self, sample: Model) -> tuple:
        """The values of the declared symbols in `sample`; a missing one is
        0, false or the constant-0 function, as in :func:`restrict_to_problem`."""
        return tuple(sample.of(sort).get(name, ZERO[sort]) for name, sort in zip(self.names, self.sorts))

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

    @functools.cached_property
    def model(self) -> Callable[..., Model]:
        """`model(values)`: the :class:`Model` of a vector (a tuple or a
        list of the layout's length).  A generated function unpacks the
        vector and returns ``Model({_n0: v0, ...}, {...}, {...})``, one dict
        display per sort group: fresh dicts in declaration order on every
        call.  The function is compiled once per tuple of sorts
        (:func:`_model_factory`) and bound to this layout's names on first
        use; the names are closure variables, never written into the text."""
        return _model_factory(tuple(self.sorts))(*self.names)


def epoch_drawer(
    iv: IntervalMap,
    seed: Model,
    layout: SampleLayout,
    cfg: SamplerConfig,
    rng: random.Random,
    pred: Callable[..., bool],
    fresh: list[Model],
    *,
    reconstructions: list[tuple[str, Term]] | None = None,
    enumerate_up_to: int = 0,
) -> tuple[Callable[[int, set, float], tuple[int, int, tuple | None]], int]:
    """`(chunk, volume)`: `chunk(count, keys, last)` makes up to `count`
    draws from the box `iv`, each a vector of `layout`.  A draw is a clash
    when an array cell already set falls outside a key's interval; any
    other draw is checked with `pred(*vector)` and added to `keys`, and a
    vector that grows `keys` is fresh: its :class:`Model` is appended to
    `fresh`.  The chunk stops after the fresh draw that `keys` held `last`
    keys before, or at the first vector that `pred` rejects, and returns
    ``(draws, clashes, rejected vector or None)``.  `keys` is a set or
    :class:`DedupSet`'s digest set; its size is tested inline.

    A box with no select-like key and no reconstruction has a volume: the
    product of the points of its integer steps.  When that volume V is at
    most `enumerate_up_to`, the box is enumerated: the first V draws are
    each of its points once, in an order shuffled with `rng` (a single
    point takes no random number), and `volume` is V.  Otherwise `volume`
    is 0 and every draw is random, as follows.

    The draw is planned once (:func:`_plan`) over a frame of slots: the
    layout's declared symbols, then the seed's other symbols (the fresh
    names of array-equality rewriting, and keys that are not declared),
    then one slot per constant index and one per select-like key, which
    holds the value the key reads in the draw.  Each key's index is read
    from one slot, planned once: a frame symbol's, a constant's, or an
    earlier key's read, since the keys are sorted by nesting depth.  Only an
    index term of another shape is evaluated in every draw
    (:func:`_eval_index`).  A draw writes the integer steps, then the
    select-like steps, so that each array or function becomes its seed
    default with the cells of the draw as exceptions.  The
    `reconstructions` then rebuild the arrays that equality rewriting
    substituted, over a :class:`Model` built only when there are any.  The
    vector is the declared prefix of the frame.

    Each value is ``lo + r``, where ``r`` is the first of
    ``rng.getrandbits(points.bit_length())`` below `points`: the bits and
    the rejection loop of ``rng.randint``, so a draw equals
    ``layout.vector(restrict_to_problem(d, problem))`` of the draw ``d`` of
    :func:`sample_intervals` (a box without select-like keys) and consumes
    the same random numbers; that reference chain stays for the tests and
    the benchmark's span tracer, not for sampling.

    The chunk loop is generated per shape (:func:`_chunk_factory`): the
    integer steps are unrolled, and a fresh vector becomes a Model through
    one dict display per sort group.  The select-like steps and the
    reconstructions stay a per-epoch function that the loop calls."""
    undeclared = _seed_declarations(seed, layout.slot)
    frame = SampleLayout(layout.declarations + undeclared) if undeclared else layout
    slot = frame.slot
    int_steps, access_steps = _plan(iv, seed, cfg.unbounded_width)
    values = list(frame.vector(seed))
    arrays = [(name, i, values[i].default) for name, i in frame.funcs]
    cell_names = list(dict.fromkeys([name for name, _, _ in arrays] + [symbol for _, symbol, *_ in access_steps]))
    access_plan = []
    read_slots: dict[Term, int] = {}  # the slot of each key's read, after the frame's values
    for key, symbol, index, interval, lo, points in access_steps:
        if type(index) is IntConst:
            source = len(values)
            values.append(index.value)
        else:  # a frame symbol's slot, an earlier key's, or None: `_eval_index` reads it
            source = slot.get(index.name) if type(index) is IntVar else read_slots.get(index)
        read_slots[key] = len(values)
        values.append(0)
        access_plan.append((source, index, symbol, interval, lo, points, points.bit_length(), read_slots[key]))
    recipes = [(name, term, slot[name]) for name, term in reversed(reconstructions or [])]
    n = len(layout.names)
    slots = tuple(slot[name] for name, _, _ in int_steps)
    steps = [x for _, lo, points in int_steps for x in (lo, points, points.bit_length())]
    names = layout.names

    if access_plan or recipes:
        exact = len(values) == n
        getrandbits = rng.getrandbits

        def fill():
            cells = {name: {} for name in cell_names}
            for source, index, symbol, interval, lo, points, k, read in access_plan:
                at = values[source] if source is not None else _eval_index(index, slot, values, cells, {}, seed)
                bucket = cells[symbol]
                if at not in bucket:
                    r = getrandbits(k)
                    while r >= points:
                        r = getrandbits(k)
                    bucket[at] = lo + r
                elif not interval.member(bucket[at]):
                    return None
                values[read] = bucket[at]
            for name, i, default in arrays:
                values[i] = FuncValue(default, cells[name])
            if recipes:
                sample = frame.model(values[: len(frame.names)])
                for name, term, i in recipes:
                    values[i] = sample.funcs[name] = eval_term(term, sample)
            return tuple(values) if exact else tuple(values[:n])

        bind = _chunk_factory(tuple(layout.sorts), slots, "arrays")
        return bind(names, (), steps, pred, fresh.append, getrandbits=getrandbits, values=values, fill=fill), 0

    for _, i, default in arrays:  # no select-like key sets a cell
        values[i] = FuncValue(default, {})
    consts = [values[i] for i in range(n) if i not in slots]
    volume = math.prod(points for _, _, points in int_steps)
    if volume <= enumerate_up_to:
        order = list(itertools.product(*(range(lo, lo + points) for _, lo, points in int_steps)))
        rng.shuffle(order)
        bind = _chunk_factory(tuple(layout.sorts), slots, "enumerate")
        return bind(names, consts, (), pred, fresh.append, next_point=iter(order).__next__), volume
    bind = _chunk_factory(tuple(layout.sorts), slots, "random")
    return bind(names, consts, steps, pred, fresh.append, getrandbits=rng.getrandbits), 0


_CHUNK = 64  # draws between two reads of the clock, and between two hand-overs of fresh samples


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
    on_fresh: Callable[[list[Model]], None] | None = None,
) -> EpochResult:
    """Run up to n sampling rounds of k draws, stopping early when the rate
    of new unique samples in a round drops below the threshold.  A box of at
    most k points is enumerated instead (:func:`epoch_drawer`): one round
    of V draws visits each of its V points once, and `stats.enumerated`
    says whether the round ran to its end.  Each draw is a vector of the
    run's `layout`, checked with `pred`, the input formula compiled by
    :meth:`SampleLayout.predicate`, and deduplicated in `dedup.keys` as it
    is; only fresh samples become Models.  The draws, checks, key tests and
    Model builds of a chunk run in the epoch's generated chunk loop, with
    no Python function call per draw but `pred` and a box's array steps.
    The deadline and the budget cut a round short.

    A round draws in chunks of 64, the period at which it reads the clock.
    Before each chunk, and once when the epoch ends, `on_fresh(samples)`
    takes the fresh samples drawn since its last call, if there are any;
    the clock is read after it, so the time `on_fresh` takes counts against
    the epoch's time limit.  A chunk stops early at the budget, and at
    `dedup`'s cap, where the set settles to digests and the chunk goes on.
    `fresh_samples` of the result holds every sample handed over, in order;
    a stop inside a chunk (an interrupt, a :class:`SoundnessViolation`)
    hands none of that chunk's."""
    fresh: list[Model] = []
    chunk, volume = epoch_drawer(
        iv, seed, layout, cfg, rng, pred, fresh, reconstructions=reconstructions, enumerate_up_to=cfg.samples_per_round
    )
    rounds, per_round = (1, volume) if volume else (cfg.rounds_per_epoch, cfg.samples_per_round)
    budget = math.inf if remaining_budget is None else remaining_budget
    stats = EpochStats()
    epoch_deadline = time.monotonic() + cfg.epoch_time_limit
    if deadline is not None:
        epoch_deadline = min(epoch_deadline, deadline)
    done = False
    handed = 0  # the fresh samples handed to `on_fresh` so far

    def hand_over():
        nonlocal handed
        if on_fresh is not None and len(fresh) > handed:
            on_fresh(fresh[handed:])
            handed = len(fresh)

    for _ in range(rounds):
        new_in_round = drawn = 0
        while drawn < per_round and not done:
            hand_over()
            if time.monotonic() > epoch_deadline:
                done = True
                break
            left = min(_CHUNK, per_round - drawn)
            while left and not done:  # a chunk stopped at the cap goes on over the digests
                keys, before = dedup.keys, len(fresh)
                made, clashes, rejected = chunk(left, keys, len(keys) + min(budget - before, dedup.room()) - 1)
                if rejected is not None:
                    raise SoundnessViolation(
                        f"sample violates the formula: {canonical_assignment(layout.model(rejected))!r}"
                    )
                drawn += made
                left -= made
                stats.clashes += clashes
                new_in_round += len(fresh) - before
                dedup.settle()
                done = len(fresh) >= budget
        stats.rounds_run += 1
        stats.draws += drawn
        stats.unique_rate = new_in_round / per_round
        if done or stats.unique_rate < cfg.unique_rate_threshold:
            break
    hand_over()
    stats.duplicates = stats.draws - stats.clashes - len(fresh)
    stats.enumerated = volume > 0 and stats.draws == volume
    return EpochResult(seed=seed, intervals=iv, fresh_samples=fresh, stats=stats)


# ---------------------------------------------------------------------------
# Main loop


def _check_injected(seed: Model, formula: Formula, layout: SampleLayout, pred) -> None:
    """Reject an injected seed that leaves a symbol of `formula` unassigned
    or does not satisfy it."""
    for name, sort in free_symbols(formula).items():
        if name not in seed.of(sort):
            raise UnassignedSymbol(name)
    if not pred(*layout.vector(seed)):
        raise NotAModel("injected seed does not satisfy the formula")


def _most_fresh(iv: IntervalMap, cfg: SamplerConfig) -> int:
    """The most fresh samples an epoch can draw from the box `iv`: its
    draws, and no more than its points when every key is an Int variable
    bounded on both sides."""
    most = cfg.rounds_per_epoch * cfg.samples_per_round
    if all(isinstance(key, IntVar) and b.lo is not None and b.hi is not None for key, b in iv.entries.items()):
        most = min(most, math.prod(b.hi - b.lo + 1 for b in iv.entries.values()))
    return most


def sample_formula(
    problem: ParsedProblem,
    cfg: SamplerConfig,
    client: SolverClient | None,
    rng: random.Random | None = None,
    on_sample=None,
    on_epoch=None,
) -> RunStats:
    """Sample distinct models of `problem` until a limit is hit.

    `on_sample(model)` fires for every fresh verified sample, a 64-draw
    chunk at a time during the epoch (:func:`exploit_epoch`), so the first
    sample comes before its epoch ends; `on_epoch` receives each EpochResult
    after the epoch's last sample.  Returns aggregate statistics, whose
    `wall_time` holds the seconds of each phase and the "total": setup
    (preprocessing, the predicate compile, the table of the formula's
    literal forms and the blocking history), solve
    (with the loop head, and under blocking the box's negation and the send
    of the next query), implicant, strengthen (with the seed's containment
    check), sample, and emit (the two callbacks: `on_sample`, timed once
    per chunk, and `on_epoch`).  The time `on_sample` takes also counts
    against the epoch's time limit.  The phases are contiguous laps of one
    clock, so they sum to the total.

    Under blocking, the next query needs only the box, so it is sent before
    the box's draws (:meth:`SolverClient.prefetch`), unless this epoch can
    fill the sample budget: the remaining budget is at most the epoch's
    draws and, for a box of Int variables bounded on both sides, its
    points.  "solve" is then the send plus what is left of the wait: the
    send ahead saves the query's round-trip wait, and the solver works in
    parallel with "sample" only where a core is free for it.  A pipe write
    may also hand the core to the solver at once, so the send itself can
    take the solver's time.  The random strategy asks when it needs a seed,
    since its soft targets are drawn from `rng` after the draws.  A run
    that has drawn every model stops with `stop_reason` "exhausted"
    (:class:`BlockingHistory`).

    Each solver query carries the run's deadline and counts in
    `solver_calls` when its answer is read, whether it answers or fails, so
    a run may stop with one query sent and not counted, which the client's
    `close` ends.  One that fails once the deadline has passed stops the
    run with "total time limit", and so does strengthening, which reads the
    deadline every few literals.  A solver failure before the deadline
    raises :class:`SolverFailure` if no epoch has run yet, and otherwise
    stops the run with "solver failure: <reason>", so that the samples
    already taken keep their stats.  On Ctrl-C it stops with "interrupted",
    and `unique_samples` counts the samples `on_sample` took."""
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

    def emit(samples: list[Model]) -> None:
        """Hand an epoch's fresh samples to `on_sample`, timed as "emit"."""
        lap("emit")
        for sample in samples:
            if on_sample is not None:
                on_sample(sample)
            stats.unique_samples += 1  # once handed over, so that an interrupt leaves it exact
        lap("sample")

    formula = to_nnf(preprocess(problem.assertion))
    layout = SampleLayout(problem.declarations)
    pred = layout.predicate(formula)
    forms = strengthen_mod.LiteralForms(formula)
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
            try:
                if layout.funcs:
                    result = arrays_mod.product_to_intervals(product, seed, rng, forms, deadline)
                    iv, seed, reconstructions = result.intervals, result.seed, result.reconstructions
                else:
                    iv = strengthen_mod.product_to_intervals(product, seed, forms, deadline)
            except TimeLimit:
                stats.stop_reason = "total time limit"
                break
            if not contains(iv, seed):
                raise SoundnessViolation("seed fell outside its own interval box")

            remaining = None if cfg.max_samples is None else cfg.max_samples - stats.unique_samples
            if history is not None:
                lap("solve")
                history.add(iv)
                if client is not None and (remaining is None or remaining > _most_fresh(iv, cfg)):
                    client.prefetch(history.request(formula, deadline))

            lap("sample")
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
                on_fresh=emit,
            )
            stats.epochs += 1
            stats.draws += epoch.stats.draws
            stats.duplicates += epoch.stats.duplicates
            stats.clashes += epoch.stats.clashes
            stats.enumerated_epochs += epoch.stats.enumerated
            if history is not None and epoch.stats.enumerated:
                history.drawn_in_full()

            lap("emit")
            if on_epoch is not None:
                on_epoch(epoch)
    except KeyboardInterrupt:
        stats.stop_reason = "interrupted"

    phase["total"] = lap(running) - t_start  # the stopping loop head or the interrupted phase
    stats.probabilistic_dedup = dedup.probabilistic
    stats.wall_time = phase
    return stats
