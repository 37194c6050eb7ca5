"""Epoch-based sampling loop.

Each epoch grabs a fresh seed model from the solver (randomized MAX-SMT or
blocking), extracts an implicant of the formula around the seed, shrinks it
to interval bounds, and then draws many cheap samples from the box.  Every
emitted sample is re-verified against the input formula and deduplicated
run-wide.  Interval formulas accumulate so the blocking strategy can steer
later seeds away from already-covered regions.

Draws are flat tuples of values, one per declaration in declaration order
(:class:`SampleLayout`).  Once per epoch, :func:`epoch_drawer` plans the
draw from the box: a clamped range per key, and for an array box the
select-like keys sorted by nesting depth.  A draw then only evaluates the
indices of those keys and fills their slots; an array box's draw is
projected onto the tuple.  Each tuple is checked by one positional
predicate compiled once per run and is its own dedup key (function values
written as their default and sorted exceptions); only a fresh sample
becomes a :class:`Model`.  The random stream and the samples equal those of
the reference chain :func:`sample_intervals` (or one draw of an array box,
:func:`sample_intervals_arrays`) -> :func:`restrict_to_problem` ->
:func:`canonical_assignment`, which stays for tests and ``cli verify``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from . import arrays as arrays_mod
from . import strengthen as strengthen_mod
from .arrays import is_select_like, select_index, select_symbol
from .compiled import compile_formula, compile_predicate
from .errors import NotAModel, SolverFailure, SoundnessViolation, UnassignedSymbol, UnsatFormula
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
    eval_formula,  # noqa: F401 -- not called here; bench/tracer.py wraps sampler.eval_formula
    eval_term,
    free_symbols,
    fun_names,
    iter_term_nodes,
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
    dedup_cap: int = 1_000_000
    inject_seed: Model | None = None  # test hook: fixed first seed

    def __post_init__(self):
        if self.strategy not in ("random", "blocking"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.total_time_limit <= 0 or self.epoch_time_limit <= 0:
            raise ValueError("time limits must be positive")
        if not 0.0 <= self.unique_rate_threshold <= 1.0:
            raise ValueError("unique-rate threshold must lie in [0, 1]")


@dataclass
class EpochStats:
    rounds_run: int = 0
    unique_rate: float = 0.0
    clashes: int = 0


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
    clashes: int = 0
    blocking_resets: int = 0
    raw_coverage: float | None = None
    probabilistic_dedup: bool = False
    stop_reason: str = ""
    wall_time: dict[str, float] = field(default_factory=dict)


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


def _request_declarations(problem: ParsedProblem, extra_formulas: list[Formula]) -> list[Declaration]:
    decls = list(problem.declarations)
    known = {d.name for d in decls}
    for f in extra_formulas:
        for name, sort in free_symbols(f).items():
            if name not in known:
                known.add(name)
                decls.append(Declaration(name, sort))
        for name in fun_names(f):
            if name not in known:
                known.add(name)
                decls.append(Declaration(name, Sort.INT, is_function=True))
    return decls


def get_seed_random(
    problem: ParsedProblem, formula: Formula, client: SolverClient, cfg: SamplerConfig, rng: random.Random
) -> tuple[Model, SolverVerdict]:
    """Seed via MAX-SMT: the formula is hard, equality of every int variable
    to a uniformly random value in [-B, B] is soft."""
    soft = [
        (Atom(Rel.EQ, IntVar(d.name), IntConst(rng.randint(-cfg.random_bound, cfg.random_bound))), 1)
        for d in problem.declarations
        if d.sort == Sort.INT and not d.is_function
    ]
    req = SolverRequest(list(problem.declarations), [formula], soft)
    verdict = client.max_solve(req)
    if verdict.kind == VerdictKind.UNSAT:
        raise UnsatFormula("input formula is unsatisfiable")
    if not verdict.is_sat:
        raise SolverFailure(verdict.reason or verdict.kind.value)
    return verdict.model, verdict


def get_seed_blocking(
    problem: ParsedProblem,
    formula: Formula,
    client: SolverClient,
    accumulated: list[IntervalMap],
) -> tuple[Model, bool, int]:
    """Seed outside every accumulated interval box; on failure the history is
    cleared and the search restarts from the plain formula.  Returns the
    seed, whether a reset happened, and the number of solver calls."""
    blocking = [neg_to_formula(iv) for iv in accumulated]
    req = SolverRequest(_request_declarations(problem, blocking), [formula] + blocking, [])
    verdict = client.solve(req)
    calls = 1
    if verdict.is_sat:
        return verdict.model, False, calls
    if verdict.kind not in (VerdictKind.UNSAT, VerdictKind.UNKNOWN):
        raise SolverFailure(verdict.reason or verdict.kind.value)
    accumulated.clear()
    verdict = client.solve(SolverRequest(list(problem.declarations), [formula], []))
    calls += 1
    if verdict.kind == VerdictKind.UNSAT:
        raise UnsatFormula("input formula is unsatisfiable")
    if not verdict.is_sat:
        raise SolverFailure(verdict.reason or verdict.kind.value)
    return verdict.model, True, calls


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
            index = select_index(key)
            depth = sum(1 for t in iter_term_nodes(index) if is_select_like(t))
            step = (select_symbol(key), index, interval, *_clamp(interval, eval_term(key, seed), width))
            nested.append((depth, step))
    nested.sort(key=lambda pair: pair[0])
    return int_steps, [step for _, step in nested]


def _eval_index(t: Term, ints: dict[str, int], slots: dict[str, dict[int, int]], seed: Model) -> int:
    """The value of an index term within a draw: variables read `ints`, an
    access reads the slot its index reaches.  A slot that no key has drawn
    takes the access's value under `seed`, and keeps it for the draw."""
    if is_select_like(t):
        index = _eval_index(select_index(t), ints, slots, seed)
        bucket = slots.setdefault(select_symbol(t), {})
        if index not in bucket:
            bucket[index] = eval_term(t, seed)
        return bucket[index]
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, IntVar):
        try:
            return ints[t.name]
        except KeyError:
            raise UnassignedSymbol(t.name) from None
    if isinstance(t, Add):
        return sum(_eval_index(a, ints, slots, seed) for a in t.args)
    if isinstance(t, Sub):
        return _eval_index(t.lhs, ints, slots, seed) - _eval_index(t.rhs, ints, slots, seed)
    if isinstance(t, Mul):
        prod = 1
        for a in t.args:
            prod *= _eval_index(a, ints, slots, seed)
        return prod
    raise TypeError(f"cannot evaluate term of type {type(t).__name__}")


def _array_drawer(
    iv: IntervalMap,
    seed: Model,
    cfg: SamplerConfig,
    rng: random.Random,
    reconstructions: list[tuple[str, Term]] | None,
) -> Callable[[], Model | None]:
    """`draw()`: one assignment from an interval map with select-like keys,
    or None on a clash (a slot already set outside a key's interval).

    Integer keys are drawn first, then the select-like keys in the order
    of :func:`_plan`.  An array or function keeps its seed default; its
    exceptions are the slots of the draw.  The `reconstructions` then
    rebuild the arrays that equality rewriting substituted."""
    int_steps, access_steps = _plan(iv, seed, cfg.unbounded_width)
    randbelow = rng._randbelow
    defaults = [(name, fv.default) for name, fv in seed.funcs.items()]
    recipes = list(reversed(reconstructions or []))

    def draw() -> Model | None:
        ints = dict(seed.ints)
        for name, lo, points in int_steps:
            ints[name] = lo + randbelow(points)
        slots: dict[str, dict[int, int]] = {}
        for symbol, index, interval, lo, points in access_steps:
            at = _eval_index(index, ints, slots, seed)
            bucket = slots.setdefault(symbol, {})
            if at not in bucket:
                bucket[at] = lo + randbelow(points)
            elif not interval.member(bucket[at]):
                return None
        funcs = {name: FuncValue(default, slots.get(name, {})) for name, default in defaults}
        for name, touched in slots.items():
            if name not in funcs:
                funcs[name] = FuncValue(0, touched)
        sample = Model(ints=ints, bools=dict(seed.bools), funcs=funcs)
        for name, term in recipes:
            sample.funcs[name] = eval_term(term, sample)
        return sample

    return draw


def sample_intervals_arrays(
    iv: IntervalMap,
    seed: Model,
    cfg: SamplerConfig,
    rng: random.Random,
    reconstructions: list[tuple[str, Term]] | None = None,
) -> Model | None:
    """Draw one assignment from an interval map with select-like keys, or
    None on a clash: one draw of the plan :func:`epoch_drawer` makes for
    an array box."""
    return _array_drawer(iv, seed, cfg, rng, reconstructions)()


# ---------------------------------------------------------------------------
# Epoch exploitation


def restrict_to_problem(sample: Model, problem: ParsedProblem) -> Model:
    out = Model()
    for d in problem.declarations:
        if d.is_function or d.sort == Sort.ARRAY:
            fv = sample.funcs.get(d.name, FuncValue(0))
            out.funcs[d.name] = fv.copy()
        elif d.sort == Sort.INT:
            out.ints[d.name] = sample.ints.get(d.name, 0)
        else:
            out.bools[d.name] = sample.bools.get(d.name, False)
    return out


class SampleLayout:
    """A sample of a problem as a flat tuple of values, one per declaration
    in declaration order: ints, bools, and :class:`FuncValue` objects for
    arrays and functions."""

    def __init__(self, declarations: list[Declaration]):
        self.names = [d.name for d in declarations]
        self.slot = {name: i for i, name in enumerate(self.names)}
        self.ints: list[tuple[str, int]] = []
        self.bools: list[tuple[str, int]] = []
        self.funcs: list[tuple[str, int]] = []
        for i, d in enumerate(declarations):
            if d.is_function or d.sort == Sort.ARRAY:
                self.funcs.append((d.name, i))
            elif d.sort == Sort.INT:
                self.ints.append((d.name, i))
            else:
                self.bools.append((d.name, i))

    def predicate(self, formula: Formula):
        """`pred(*values)`: the truth value of `formula` under a vector."""
        return compile_predicate([formula], self.names)

    def vector(self, sample: Model) -> tuple:
        """The values of the declared symbols in `sample`; a missing one is
        0, false or the constant-0 function, as in :func:`restrict_to_problem`."""
        values: list = [None] * len(self.names)
        for name, i in self.ints:
            values[i] = sample.ints.get(name, 0)
        for name, i in self.bools:
            values[i] = sample.bools.get(name, False)
        for name, i in self.funcs:
            values[i] = sample.funcs.get(name, FuncValue(0))
        return tuple(values)

    def key(self, values: tuple) -> tuple:
        """Dedup key of a vector: itself, with each function value written
        as (default, sorted exceptions)."""
        key = list(values)
        for _, i in self.funcs:
            fv = key[i]
            key[i] = (fv.default, tuple(sorted(fv.exceptions.items())))
        return tuple(key)

    def model(self, values: tuple) -> Model:
        """The :class:`Model` of a vector, its dicts in declaration order."""
        return Model(
            ints={name: values[i] for name, i in self.ints},
            bools={name: values[i] for name, i in self.bools},
            funcs={name: values[i] for name, i in self.funcs},
        )


def epoch_drawer(
    iv: IntervalMap,
    seed: Model,
    layout: SampleLayout,
    cfg: SamplerConfig,
    rng: random.Random,
    *,
    reconstructions: list[tuple[str, Term]] | None = None,
) -> Callable[[], tuple | None]:
    """`draw()`: one vector drawn from the box `iv`, or None on a clash.

    Each draw equals ``layout.vector(restrict_to_problem(d, problem))`` of
    the draw ``d`` of :func:`sample_intervals` (a problem without arrays or
    functions) or :func:`sample_intervals_arrays`, and consumes the same
    random numbers.  The draw is planned once (:func:`_plan`); each value
    is ``lo + rng._randbelow(points)``, which is what ``rng.randint`` computes.
    Integer keys that are not declared draw into a throw-away slot."""
    if layout.funcs:
        draw_sample = _array_drawer(iv, seed, cfg, rng, reconstructions)
        vector = layout.vector

        def draw_arrays():
            sample = draw_sample()
            return None if sample is None else vector(sample)

        return draw_arrays

    int_steps, access_steps = _plan(iv, seed, cfg.unbounded_width)
    assert not access_steps, "integer-only sampling requires variable keys"
    n = len(layout.names)
    plan = [(layout.slot.get(name, n), lo, points) for name, lo, points in int_steps]
    values = list(layout.vector(seed))
    exact = all(slot < n for slot, _, _ in plan)
    if not exact:
        values.append(0)
    randbelow = rng._randbelow

    def draw_ints():
        for slot, lo, points in plan:
            values[slot] = lo + randbelow(points)
        return tuple(values) if exact else tuple(values[:n])

    return draw_ints


def exploit_epoch(
    iv: IntervalMap,
    seed: Model,
    pred: Callable[..., bool],
    problem: ParsedProblem,
    dedup: DedupSet,
    cfg: SamplerConfig,
    rng: random.Random,
    *,
    reconstructions: list[tuple[str, Term]] | None = None,
    deadline: float | None = None,
    remaining_budget: int | None = None,
) -> EpochResult:
    """Run up to n sampling rounds of k draws, stopping early when the rate
    of new unique samples in a round drops below the threshold.  Each draw
    is a vector of the problem's :class:`SampleLayout`, checked with
    `pred`, the input formula compiled by :meth:`SampleLayout.predicate`,
    and deduplicated by its key; only fresh samples become Models."""
    layout = SampleLayout(problem.declarations)
    draw = epoch_drawer(iv, seed, layout, cfg, rng, reconstructions=reconstructions)
    key_of = layout.key if layout.funcs else None
    model_of = layout.model
    add = dedup.add
    fresh: list[Model] = []
    stats = EpochStats()
    epoch_deadline = time.monotonic() + cfg.epoch_time_limit
    if deadline is not None:
        epoch_deadline = min(epoch_deadline, deadline)
    done = False
    for _ in range(cfg.rounds_per_epoch):
        new_in_round = 0
        for i in range(cfg.samples_per_round):
            if i % 64 == 0 and time.monotonic() > epoch_deadline:
                done = True
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
                    done = True
                    break
        stats.rounds_run += 1
        stats.unique_rate = new_in_round / cfg.samples_per_round
        if done or stats.unique_rate < cfg.unique_rate_threshold:
            break
    return EpochResult(seed=seed, intervals=iv, fresh_samples=fresh, stats=stats)


# ---------------------------------------------------------------------------
# Main loop


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
    `wall_time` holds the seconds of each phase (solve, implicant,
    strengthen, sample, and emit: the two callbacks) and the "total"."""
    rng = rng or random.Random(cfg.rng_seed)
    stats = RunStats()
    phase = {"solve": 0.0, "implicant": 0.0, "strengthen": 0.0, "sample": 0.0, "emit": 0.0}
    t_start = time.monotonic()
    deadline = t_start + cfg.total_time_limit

    formula = to_nnf(preprocess(problem.assertion))
    layout = SampleLayout(problem.declarations)
    pred = layout.predicate(formula)
    dedup = DedupSet(cfg.dedup_cap)
    accumulated: list[IntervalMap] = []
    injected = cfg.inject_seed

    while True:
        if time.monotonic() > deadline:
            stats.stop_reason = "total time limit"
            break
        if cfg.max_samples is not None and stats.unique_samples >= cfg.max_samples:
            stats.stop_reason = "max samples"
            break

        t0 = time.monotonic()
        if injected is not None:
            seed = injected
            injected = None
            if not compile_formula(formula)(seed):
                raise NotAModel("injected seed does not satisfy the formula")
        elif client is None:
            stats.stop_reason = "no solver configured"
            break
        elif cfg.strategy == "blocking":
            seed, was_reset, calls = get_seed_blocking(problem, formula, client, accumulated)
            stats.solver_calls += calls
            if was_reset:
                stats.blocking_resets += 1
        else:
            seed, verdict = get_seed_random(problem, formula, client, cfg, rng)
            stats.solver_calls += 1
            if verdict.degraded:
                stats.maxsmt_degradations += 1
        phase["solve"] += time.monotonic() - t0

        t0 = time.monotonic()
        product = compute_implicant(formula, seed, rng)
        phase["implicant"] += time.monotonic() - t0

        t0 = time.monotonic()
        reconstructions: list[tuple[str, Term]] = []
        if layout.funcs:
            result = arrays_mod.product_to_intervals(product, seed, rng)
            iv, seed, reconstructions = result.intervals, result.seed, result.reconstructions
        else:
            iv = strengthen_mod.product_to_intervals(product, seed)
        phase["strengthen"] += time.monotonic() - t0

        if not contains(iv, seed):
            raise SoundnessViolation("seed fell outside its own interval box")

        t0 = time.monotonic()
        remaining = None if cfg.max_samples is None else cfg.max_samples - stats.unique_samples
        epoch = exploit_epoch(
            iv,
            seed,
            pred,
            problem,
            dedup,
            cfg,
            rng,
            reconstructions=reconstructions,
            deadline=deadline,
            remaining_budget=remaining,
        )
        phase["sample"] += time.monotonic() - t0

        stats.epochs += 1
        stats.unique_samples += len(epoch.fresh_samples)
        stats.clashes += epoch.stats.clashes
        accumulated.append(iv)

        t0 = time.monotonic()
        if on_sample is not None:
            for sample in epoch.fresh_samples:
                on_sample(sample)
        if on_epoch is not None:
            on_epoch(epoch)
        phase["emit"] += time.monotonic() - t0

    stats.probabilistic_dedup = dedup.probabilistic
    phase["total"] = time.monotonic() - t_start
    stats.wall_time = phase
    return stats
