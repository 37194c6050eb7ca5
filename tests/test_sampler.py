"""Sampling loop: seeds, interval draws, epochs, and the full run."""

import ast
import dataclasses
import hashlib
import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxsampler.errors import (
    ConfigError,
    NotAModel,
    SolverFailure,
    SoundnessViolation,
    UnassignedSymbol,
    UnsatFormula,
)
from boxsampler.intervals import Interval, IntervalMap, contains
from boxsampler.minisolver import LocalSolverClient
from boxsampler.sampler import (
    BlockingHistory,
    DedupSet,
    RunStats,
    SampleLayout,
    SamplerConfig,
    canonical_assignment,
    epoch_drawer,
    exploit_epoch,
    get_seed_blocking,
    get_seed_random,
    restrict_to_problem,
    sample_formula,
    sample_intervals,
    sample_intervals_arrays,
)
from boxsampler.smtlib import Declaration, ParsedProblem, parse_problem
from boxsampler.solver import SolverClient, SolverRequest, SolverVerdict, VerdictKind
from boxsampler.terms import (
    Add,
    ArrayVar,
    Atom,
    FuncValue,
    IntConst,
    IntVar,
    Model,
    Mul,
    Or,
    Rel,
    Select,
    Sort,
    Store,
    Sub,
    eval_formula,
    eval_term,
    free_symbols,
    preprocess,
    to_nnf,
)
from boxsampler import sampler as sampler_mod
from boxsampler import strengthen as strengthen_mod
from oracle import deep_and_or, fun_app, layout_model, nested_selects

X, Y = IntVar("x"), IntVar("y")
A = ArrayVar("a")
I, J = IntVar("i"), IntVar("j")


def cfg_of(**kw) -> SamplerConfig:
    return SamplerConfig(**kw)


class ScriptedClient(SolverClient):
    """Replays a fixed transcript of verdicts; records requests."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.requests: list[SolverRequest] = []

    def _next(self, req):
        self.requests.append(req)
        if not self.verdicts:
            return SolverVerdict(VerdictKind.ERROR, reason="transcript exhausted")
        v = self.verdicts.pop(0)
        return v

    solve = _next
    max_solve = _next


def sat(model: Model) -> SolverVerdict:
    return SolverVerdict(VerdictKind.SAT, model=model)


class TestGetSeed:
    def test_random_unique_model(self):
        p = parse_problem("(declare-const x Int)(assert (= x 5))")
        seed, _ = get_seed_random(p, preprocess(p.assertion), LocalSolverClient(), cfg_of(), random.Random(0), RunStats())
        assert seed.ints["x"] == 5

    def test_random_soft_pulls_toward_target(self):
        p = parse_problem("(declare-const x Int)(assert (and (<= 0 x) (<= x 10)))")
        f = to_nnf(preprocess(p.assertion))
        hits = set()
        for s in range(6):
            seed, _ = get_seed_random(p, f, LocalSolverClient(), cfg_of(random_bound=10), random.Random(s), RunStats())
            assert eval_formula(f, seed)
            hits.add(seed.ints["x"])
        assert len(hits) > 1  # randomized targets move the seed around

    def test_random_unsat_propagates(self):
        p = parse_problem("(declare-const x Int)(assert (>= x 1))(assert (<= x 0))")
        with pytest.raises(UnsatFormula):
            get_seed_random(p, preprocess(p.assertion), LocalSolverClient(), cfg_of(), random.Random(0), RunStats())

    def test_blocking_empty_history(self):
        p = parse_problem("(declare-const x Int)(assert (and (<= 0 x) (<= x 3)))")
        f = to_nnf(preprocess(p.assertion))
        stats = RunStats()
        seed, was_reset = get_seed_blocking(f, LocalSolverClient(), BlockingHistory(p), stats)
        assert eval_formula(f, seed) and not was_reset and stats.solver_calls == 1

    def test_blocking_avoids_prior_boxes(self):
        p = parse_problem("(declare-const x Int)(assert (and (<= 0 x) (<= x 3)))")
        f = to_nnf(preprocess(p.assertion))
        prior = BlockingHistory(p)
        prior.add(IntervalMap({X: Interval(0, 1)}))
        seed, was_reset = get_seed_blocking(f, LocalSolverClient(), prior, RunStats())
        assert seed.ints["x"] in (2, 3) and not was_reset

    def test_blocking_reset_path(self):
        p = parse_problem("(declare-const x Int)(assert (= x 0))")
        f = to_nnf(preprocess(p.assertion))
        history = BlockingHistory(p)
        history.add(IntervalMap({X: Interval(0, 0)}))
        stats = RunStats()
        seed, was_reset = get_seed_blocking(f, LocalSolverClient(), history, stats)
        assert seed.ints["x"] == 0 and was_reset and stats.solver_calls == 2
        assert history.negations == []  # history cleared

    def test_history_declares_the_symbols_only_its_boxes_name(self):
        p = parse_problem("(declare-const x Int)(assert (>= x 0))")
        history = BlockingHistory(p)
        history.add(IntervalMap({X: Interval(0, 4), Y: Interval(1, 1)}))
        history.add(IntervalMap({Y: Interval(2, 2)}))
        assert [d.name for d in history.declarations.values()] == ["x", "y"]
        history.clear()
        assert list(history.declarations.values()) == p.declarations

    def test_a_box_over_declared_ints_is_not_walked_for_symbols(self, monkeypatch):
        """An Int-only blocking run adds boxes whose keys are all declared,
        so no negation is walked for the symbols it names."""
        walked = []
        walk = sampler_mod.free_symbols
        monkeypatch.setattr(sampler_mod, "free_symbols", lambda f: walked.append(f) or walk(f))
        p = parse_problem("(declare-const x Int)(declare-const y Int)(assert (and (<= 0 x 20) (<= 0 y 20) (= x y)))")
        cfg = cfg_of(strategy="blocking", max_samples=12, samples_per_round=5, rounds_per_epoch=1)
        stats = sample_formula(p, cfg, LocalSolverClient(), random.Random(3))
        assert stats.epochs >= 10 and stats.unique_samples == 12
        assert not [f for f in walked if isinstance(f, Or)]

    def test_the_fresh_arrays_of_a_box_are_declared_in_the_request(self, data_dir):
        """On an array equality, the boxes have keys over the fresh arrays
        `!c<k>` of the rewriting; each request declares every symbol its
        hard formulas name."""
        requests = []

        class Recording(LocalSolverClient):
            def solve(self, req):
                requests.append(req)
                return super().solve(req)

        p = parse_problem((data_dir / "array_store_eq.smt2").read_text())
        cfg = SamplerConfig(strategy="blocking", rng_seed=41, max_samples=200, samples_per_round=40, rounds_per_epoch=2)
        sample_formula(p, cfg, Recording())
        fresh = set()
        for req in requests:
            declared = {d.name: d.sort for d in req.declarations}
            for f in req.hard:
                named = free_symbols(f)
                assert {name: declared.get(name) for name in named} == named
                fresh |= {name for name in named if name.startswith("!c")}
        assert fresh

    @pytest.mark.parametrize("strategy, negated", [("blocking", True), ("random", False)])
    def test_each_box_is_negated_once(self, monkeypatch, strategy, negated):
        """Under blocking, one box is negated per epoch, when it is added;
        the random strategy negates none."""
        boxes = []
        negate = sampler_mod.neg_to_formula
        monkeypatch.setattr(sampler_mod, "neg_to_formula", lambda iv: boxes.append(iv) or negate(iv))
        p = parse_problem("(declare-const x Int)(declare-const y Int)(assert (and (<= 0 x 20) (<= 0 y 20)))")
        cfg = cfg_of(strategy=strategy, max_samples=40, samples_per_round=5, rounds_per_epoch=1)
        stats = sample_formula(p, cfg, LocalSolverClient(), random.Random(3))
        assert stats.epochs > 3
        assert len(boxes) == (stats.epochs if negated else 0)


class TestSampleIntervals:
    def test_pinned_interval_constant(self):
        iv = IntervalMap({X: Interval(4, 4)})
        seed = Model(ints={"x": 4})
        for _ in range(20):
            assert sample_intervals(iv, seed, cfg_of(), random.Random()).ints["x"] == 4

    def test_absent_variable_keeps_seed_value(self):
        iv = IntervalMap({X: Interval(0, 5)})
        seed = Model(ints={"x": 3, "y": 77})
        s = sample_intervals(iv, seed, cfg_of(), random.Random(0))
        assert s.ints["y"] == 77

    def test_unbounded_clamped_to_seed_width(self):
        iv = IntervalMap({Y: Interval(2, None)})
        seed = Model(ints={"y": 2})
        cfg = cfg_of(unbounded_width=1000)
        values = [sample_intervals(iv, seed, cfg, random.Random(s)).ints["y"] for s in range(200)]
        assert all(2 <= v <= 1002 for v in values)
        assert max(values) > 500  # actually uses the width

    def test_intro_box_all_samples_satisfy(self):
        iv = IntervalMap({X: Interval(0, 15), Y: Interval(2, None)})
        seed = Model(ints={"x": 12, "y": 2})
        f = parse_problem(
            "(declare-const x Int)(declare-const y Int)"
            "(assert (and (<= (- x (* 5 y)) 7) (>= x 0)))"
        ).assertion
        cfg = cfg_of(unbounded_width=1000)
        rng = random.Random(1)
        for _ in range(500):
            s = sample_intervals(iv, seed, cfg, rng)
            assert 0 <= s.ints["x"] <= 15 and 2 <= s.ints["y"] <= 1002
            assert eval_formula(f, s)

    def test_uniformity_chi_square(self):
        # 10^4 draws over 10 buckets: chi-square within 3 sigma of its mean
        iv = IntervalMap({X: Interval(0, 9)})
        seed = Model(ints={"x": 0})
        rng = random.Random(1234)
        counts = Counter(
            sample_intervals(iv, seed, cfg_of(), rng).ints["x"] for _ in range(10_000)
        )
        expected = 10_000 / 10
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(10))
        dof = 9
        assert chi2 < dof + 3 * math.sqrt(2 * dof)


class TestSampleIntervalsArrays:
    def test_single_select_pinned_index(self):
        iv = IntervalMap({Select(A, I): Interval(3, 5), I: Interval(2, 2)})
        seed = Model(ints={"i": 2}, funcs={"a": FuncValue(0, {2: 4})})
        rng = random.Random(0)
        for _ in range(50):
            s = sample_intervals_arrays(iv, seed, cfg_of(), rng)
            assert s is not None
            assert 3 <= s.funcs["a"].apply(2) <= 5

    def test_aliased_pinned_never_clashes(self):
        iv = IntervalMap(
            {
                I: Interval(3, 3),
                J: Interval(3, 3),
                Select(A, I): Interval(4, 4),
                Select(A, J): Interval(4, 4),
            }
        )
        seed = Model(ints={"i": 3, "j": 3}, funcs={"a": FuncValue(4)})
        rng = random.Random(7)
        for _ in range(10_000):
            s = sample_intervals_arrays(iv, seed, cfg_of(), rng)
            assert s is not None and s.funcs["a"].apply(3) == 4

    def test_clash_detected_when_aliases_disagree(self):
        # both keys hit slot 3 but demand disjoint intervals
        iv = IntervalMap(
            {
                I: Interval(3, 3),
                J: Interval(3, 3),
                Select(A, I): Interval(0, 0),
                Select(A, J): Interval(1, 1),
            }
        )
        seed = Model(ints={"i": 3, "j": 3}, funcs={"a": FuncValue(0)})
        assert sample_intervals_arrays(iv, seed, cfg_of(), random.Random(0)) is None

    def test_nested_select_inner_resolved_first(self):
        inner = Select(ArrayVar("b"), IntVar("k"))
        outer = Select(A, inner)
        iv = IntervalMap({outer: Interval(10, 10), inner: Interval(5, 5), IntVar("k"): Interval(1, 1)})
        seed = Model(ints={"k": 1}, funcs={"a": FuncValue(0), "b": FuncValue(5)})
        s = sample_intervals_arrays(iv, seed, cfg_of(), random.Random(0))
        assert s.funcs["b"].apply(1) == 5
        assert s.funcs["a"].apply(5) == 10

    def test_untouched_slots_take_seed_values(self):
        iv = IntervalMap({Select(A, I): Interval(0, 9)})
        seed = Model(ints={"i": 2}, funcs={"a": FuncValue(6, {5: 1})})
        s = sample_intervals_arrays(iv, seed, cfg_of(), random.Random(3))
        assert s.funcs["a"].default == 6


def _random_int_box(rng: random.Random):
    """A problem over Int and Bool declarations and a box around a seed:
    open sides, pinned keys, keys that are not declared, declared symbols
    missing from the seed."""
    decls = [Declaration(f"v{k}", Sort.INT) for k in range(rng.randint(0, 5))]
    decls += [Declaration(f"p{k}", Sort.BOOL) for k in range(rng.randint(0, 2))]
    rng.shuffle(decls)
    problem = ParsedProblem("QF_LIA", decls, Atom(Rel.EQ, IntConst(0), IntConst(0)))
    seed = Model()
    for d in decls:
        if rng.random() < 0.8:
            if d.sort == Sort.INT:
                seed.ints[d.name] = rng.randint(-50, 50)
            else:
                seed.bools[d.name] = rng.random() < 0.5
    names = list(seed.ints) + [f"w{k}" for k in range(rng.randint(0, 2))]
    iv = IntervalMap()
    for name in rng.sample(names, len(names)):
        at = seed.ints.setdefault(name, rng.randint(-50, 50))
        roll = rng.random()
        if roll < 0.25:
            interval = Interval(at, at)
        else:
            lo = None if rng.random() < 0.3 else at - rng.randint(0, 20)
            hi = None if rng.random() < 0.3 else at + rng.randint(0, 10**rng.randint(1, 15))
            interval = Interval(lo, hi)
        iv.entries[IntVar(name)] = interval
    return problem, seed, iv


def _random_array_box(rng: random.Random):
    """A problem with an array and a function, and a box over select and
    application keys whose indices may alias, so that draws can clash."""
    decls = [
        Declaration("i", Sort.INT), Declaration("j", Sort.INT), Declaration("p", Sort.BOOL),
        Declaration("a", Sort.ARRAY), Declaration("g", Sort.ARRAY, is_function=True),
    ]
    rng.shuffle(decls)
    problem = ParsedProblem("QF_ALIA", decls, Atom(Rel.EQ, IntConst(0), IntConst(0)))
    a = FuncValue(rng.randint(-3, 3), {rng.randint(0, 3): rng.randint(-3, 3) for _ in range(2)})
    seed = Model(ints={"i": rng.randint(0, 3), "j": rng.randint(0, 3)}, bools={"p": True},
                 funcs={"a": a, "g": FuncValue(rng.randint(-3, 3))})
    iv = IntervalMap()
    keys = [I, J, Select(A, I), Select(A, J), fun_app("g", I), fun_app("g", Select(A, J))]
    for key in rng.sample(keys, rng.randint(1, len(keys))):
        at = eval_term(key, seed)
        if isinstance(key, IntVar) and rng.random() < 0.5:
            iv.entries[key] = Interval(at, at)
        else:
            lo = None if rng.random() < 0.3 else at - rng.randint(0, 3)
            hi = None if rng.random() < 0.3 else at + rng.randint(0, 3)
            iv.entries[key] = Interval(lo, hi)
    return problem, seed, iv


def _one_draw_at_a_time(iv, seed, layout, cfg, rng, **kw):
    """`(draw, volume)` over :func:`epoch_drawer`'s chunk loop: `draw()` runs
    a one-draw chunk and returns the vector that reached `pred`, or None on
    a clash."""
    seen = []
    chunk, volume = epoch_drawer(iv, seed, layout, cfg, rng, lambda *values: not seen.append(values), [], **kw)
    keys = set()

    def draw():
        seen.clear()
        _, clashes, _ = chunk(1, keys, math.inf)
        return None if clashes else seen[0]

    return draw, volume


class TestEpochDrawer:
    """Each vector that the epoch drawer's chunk loop checks equals the
    reference draw, restricted to the problem and projected onto the
    layout, and consumes the same random numbers.  The integer reference is
    :func:`sample_intervals`; the array one is one draw over the seed's own
    symbols (:func:`sample_intervals_arrays`), whose stream is pinned by
    :func:`test_array_draws_match_pinned_digest`."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_int_draws_equal_reference(self, s):
        rng = random.Random(s)
        problem, seed, iv = _random_int_box(rng)
        cfg = cfg_of(unbounded_width=rng.choice([0, 5, 10**6]))
        layout = SampleLayout(problem.declarations)
        kernel_rng, reference_rng = random.Random(s), random.Random(s)
        draw, _ = _one_draw_at_a_time(iv, seed, layout, cfg, kernel_rng)
        for _ in range(30):
            reference = restrict_to_problem(sample_intervals(iv, seed, cfg, reference_rng), problem)
            values = draw()
            assert values == layout.vector(reference)
            assert layout.model(values) == reference
        assert kernel_rng.getstate() == reference_rng.getstate()

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_array_draws_equal_reference(self, s):
        rng = random.Random(s)
        problem, seed, iv = _random_array_box(rng)
        cfg = cfg_of(unbounded_width=rng.choice([1, 4]))
        layout = SampleLayout(problem.declarations)
        kernel_rng, reference_rng = random.Random(s), random.Random(s)
        draw, _ = _one_draw_at_a_time(iv, seed, layout, cfg, kernel_rng)
        for _ in range(30):
            drawn = sample_intervals_arrays(iv, seed, cfg, reference_rng)
            values = draw()
            if drawn is None:
                assert values is None
                continue
            reference = restrict_to_problem(drawn, problem)
            assert values == layout.vector(reference)
            assert layout.model(values) == reference
            assert hash(values) == hash(layout.vector(reference))
        assert kernel_rng.getstate() == reference_rng.getstate()

    def test_an_index_is_evaluated_in_each_draw_only_when_no_slot_holds_it(self, monkeypatch):
        # a declared Int, a constant and an earlier key are planned reads;
        # `i + 1` is evaluated in every draw
        calls = []
        evaluate = sampler_mod._eval_index
        monkeypatch.setattr(sampler_mod, "_eval_index", lambda t, *rest: calls.append(t) or evaluate(t, *rest))
        inner = Select(A, I)
        planned = [inner, Select(A, IntConst(3)), Select(A, inner)]
        shifted = Select(A, Add((I, IntConst(1))))
        seed = Model(ints={"i": 1}, funcs={"a": FuncValue(0, {1: 2})})
        layout = SampleLayout([Declaration("i", Sort.INT), Declaration("a", Sort.ARRAY)])
        for keys, evaluated in ((planned, 0), (planned + [shifted], 20)):
            iv = IntervalMap({key: Interval() for key in keys})
            draw, _ = _one_draw_at_a_time(iv, seed, layout, cfg_of(unbounded_width=3), random.Random(0))
            calls.clear()
            for _ in range(20):
                draw()
            assert calls.count(shifted.index) == evaluated
            assert set(calls) <= ({shifted.index, I, IntConst(1)} if evaluated else set())  # and its operands

    def test_array_boxes_do_clash(self):
        clashes = 0
        for s in range(200):
            problem, seed, iv = _random_array_box(random.Random(s))
            draw, _ = _one_draw_at_a_time(iv, seed, SampleLayout(problem.declarations), cfg_of(), random.Random(s))
            clashes += sum(draw() is None for _ in range(10))
        assert clashes > 0  # the property above covers the clash branch

    @pytest.mark.parametrize("points", [1, 2, 3, 4, 7, 8, 9, 2**20 - 1, 2**20, 2**20 + 1, 2 * 10**6 + 1, 2**70 + 3])
    def test_draws_take_the_values_and_bits_of_randint(self, points):
        """An integer key and a select-like key of `points` values each draw
        what `randint` draws, and leave the generator where it leaves it."""
        for s in range(6):
            _assert_draws_match_randint(-3, points - 4, random.Random(s), 20)

    def test_draws_match_randint_over_random_spans(self):
        # negative and huge lower bounds, widths from 2**0 to 2**70
        spans = [(0, 0), (-5, 5), (3, 10**6), (-(10**12), 10**12), (7, 8), (-1, 0)]
        gen = random.Random(3)
        spans += [(lo, lo + gen.randint(0, 2 ** gen.randint(0, 70))) for lo in range(-100, 100)]
        for k, (lo, hi) in enumerate(spans):
            _assert_draws_match_randint(lo, hi, random.Random(k), 5)

    def test_key_is_the_vector_with_canonical_functions(self):
        p = parse_problem(
            "(declare-const x Int)(declare-const a (Array Int Int))(declare-const q Bool)(assert q)"
        )
        layout = SampleLayout(p.declarations)
        values = (4, FuncValue(1, {3: 0, -2: 5}), True)
        assert values in {(4, FuncValue(1, {-2: 5, 3: 0}), True)}
        model = layout.model(values)
        assert model == Model(ints={"x": 4}, bools={"q": True}, funcs={"a": FuncValue(1, {3: 0, -2: 5})})
        assert layout.vector(model) == values


_VALUE_OF_SORT = {
    Sort.INT: st.integers(-(2**70), 2**70),
    Sort.BOOL: st.booleans(),
    Sort.ARRAY: st.builds(
        FuncValue, st.integers(-3, 3), st.dictionaries(st.integers(-5, 5), st.integers(-3, 3), max_size=3)
    ),
}


# Names that would break generated text if they were written into it.
_AWKWARD_NAMES = ['say "hi"', "a)b", "line\nbreak", "# comment", "lambda", "None", "ünï", "v0", "_n1", "Model"]


@st.composite
def _layout_vectors(draw):
    """A layout over interleaved Int, Bool and Array declarations with unique
    names of any text, perhaps a draw frame (undeclared `!u` scalars and
    `!c` arrays appended after the declared symbols), and one vector of it."""
    sorts = draw(st.lists(st.sampled_from(list(Sort)), max_size=8))
    name = st.one_of(st.sampled_from(_AWKWARD_NAMES), st.text().filter(lambda t: not t.startswith("!")))
    names = draw(st.lists(name, min_size=len(sorts), max_size=len(sorts), unique=True))
    decls = [Declaration(name, sort) for name, sort in zip(names, sorts)]
    extra = draw(st.lists(st.sampled_from([Sort.INT, Sort.ARRAY]), max_size=3))
    decls += [Declaration(f"{'!u' if sort is Sort.INT else '!c'}{k}", sort) for k, sort in enumerate(extra)]
    return SampleLayout(decls), tuple(draw(_VALUE_OF_SORT[d.sort]) for d in decls)


def _layout_of(*sorts: Sort, names=None) -> SampleLayout:
    names = names or [f"s{k}" for k in range(len(sorts))]
    return SampleLayout([Declaration(name, sort) for name, sort in zip(names, sorts)])


class TestLayoutModel:
    """`SampleLayout.model` builds what one comprehension per sort builds,
    dict order included, and fresh dicts on every call."""

    @given(_layout_vectors())
    @example((_layout_of(), ()))
    @example((_layout_of(Sort.INT), (7,)))
    @example((_layout_of(Sort.BOOL, Sort.ARRAY), (True, FuncValue(1, {2: 3}))))
    @example((_layout_of(Sort.INT, Sort.BOOL, Sort.INT, Sort.ARRAY, Sort.INT), (1, False, 2, FuncValue(0), 3)))
    @example((_layout_of(Sort.INT, Sort.BOOL, Sort.ARRAY, Sort.INT, names=_AWKWARD_NAMES[:4]), (1, True, FuncValue(2), 3)))
    @example((_layout_of(Sort.BOOL, Sort.INT, Sort.ARRAY, Sort.INT, Sort.BOOL, Sort.INT, names=_AWKWARD_NAMES[4:]), (False, 1, FuncValue(0), 2, True, 3)))
    @settings(max_examples=300, deadline=None)
    def test_model_equals_the_comprehension_reference(self, case):
        layout, values = case
        model, reference = layout.model(values), layout_model(layout, values)
        assert model == reference
        for field in ("ints", "bools", "funcs"):
            assert list(getattr(model, field)) == list(getattr(reference, field))
        again = layout.model(list(values))  # a draw with reconstructions hands it a list
        assert again == model
        for field in ("ints", "bools", "funcs"):
            assert getattr(again, field) is not getattr(model, field)

    def test_layouts_of_one_sort_signature_share_one_builder(self):
        sampler_mod._model_factory.cache_clear()
        sorts = (Sort.INT, Sort.BOOL, Sort.ARRAY, Sort.INT)
        layouts = [_layout_of(*sorts, names=[f"{k}{name}" for name in "wxyz"]) for k in range(50)]
        values = (4, True, FuncValue(1), 5)
        for k, layout in enumerate(layouts):
            assert layout.model(values) == Model({f"{k}w": 4, f"{k}z": 5}, {f"{k}x": True}, {f"{k}y": FuncValue(1)})
        info = sampler_mod._model_factory.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    def test_a_layout_that_builds_no_model_compiles_nothing(self):
        sampler_mod._model_factory.cache_clear()
        layout = _layout_of(Sort.INT, Sort.ARRAY, Sort.BOOL)
        layout.predicate(Atom(Rel.EQ, IntConst(0), IntConst(0)))
        assert layout.from_json({"s0": 3}) == (3, FuncValue(0), False)
        assert sampler_mod._model_factory.cache_info().currsize == 0


def _assert_draws_match_randint(lo: int, hi: int, rng: random.Random, draws: int):
    """An integer key over [lo, hi] and a select-like key over [lo + 9, hi + 9]
    draw what `randint` draws from a copy of `rng`, and leave `rng` where
    `randint` leaves the copy."""
    decls = [Declaration("x", Sort.INT), Declaration("i", Sort.INT), Declaration("a", Sort.ARRAY)]
    seed = Model(ints={"x": 0, "i": 0}, funcs={"a": FuncValue(0)})
    iv = IntervalMap({X: Interval(lo, hi), Select(A, I): Interval(lo + 9, hi + 9)})
    reference_rng = random.Random()
    reference_rng.setstate(rng.getstate())
    draw, _ = _one_draw_at_a_time(iv, seed, SampleLayout(decls), cfg_of(), rng)
    for _ in range(draws):
        x, i, a = draw()
        assert x == reference_rng.randint(lo, hi) and i == 0
        assert a == FuncValue(0, {0: reference_rng.randint(lo + 9, hi + 9)})
    assert rng.getstate() == reference_rng.getstate()


def _random_index(rng: random.Random, depth: int):
    """An index term: variables and constants under +, - and *, and array
    reads and function applications nested up to `depth` deep."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice([I, J, IntVar("k"), IntConst(rng.randint(-1, 2))])
    if roll < 0.55:
        return Select(rng.choice([A, ArrayVar("b")]), _random_index(rng, depth - 1))
    if roll < 0.7:
        return fun_app("g", _random_index(rng, depth - 1))
    if roll < 0.8:
        return Add((_random_index(rng, depth - 1), IntConst(rng.randint(-1, 1))))
    if roll < 0.9:
        return Sub(_random_index(rng, depth - 1), _random_index(rng, depth - 1))
    return Mul((IntConst(rng.choice([-1, 2])), _random_index(rng, depth - 1)))


def _nested_array_box(rng: random.Random):
    """A seed over arrays and a function, a box whose keys read them at
    nested and arithmetic indices (keys alias, so draws clash), and
    reconstructions of rewritten arrays."""
    seed = Model(
        ints={name: rng.randint(-1, 3) for name in ("i", "j", "k", "w")},
        bools={"p": rng.random() < 0.5},
        funcs={
            name: FuncValue(rng.randint(-2, 2), {rng.randint(-1, 3): rng.randint(-2, 3) for _ in range(rng.randint(0, 3))})
            for name in ("a", "b", "c", "g")
        },
    )
    keys = [I, J, IntVar("w")] + [
        (Select(rng.choice([A, ArrayVar("b")]), _random_index(rng, 2)) if rng.random() < 0.7
         else fun_app("g", _random_index(rng, 2)))
        for _ in range(rng.randint(1, 6))
    ]
    iv = IntervalMap()
    for key in rng.sample(keys, rng.randint(1, len(keys))):
        at = eval_term(key, seed)
        roll = rng.random()
        if roll < 0.25:
            iv.entries[key] = Interval(at, at)
        else:
            lo = None if rng.random() < 0.3 else at - rng.randint(0, 3)
            hi = None if rng.random() < 0.3 else at + rng.randint(0, 3)
            iv.entries[key] = Interval(lo, hi)
    # reconstructions apply last to first, so the second one reads `c` of the seed
    roll = rng.random()
    reconstructions = [("c", Store(A, I, IntVar("k"))), ("b", Store(ArrayVar("c"), J, IntConst(1)))][: (roll < 0.2) + (roll < 0.35)]
    return seed, iv, reconstructions


def test_array_draws_match_pinned_digest():
    """`sample_intervals_arrays` on seeded boxes with nested accesses,
    arithmetic indices, function keys, clashes and reconstructions: the
    draws and the final random state equal the pinned ones."""
    gen, rng = random.Random(2212), random.Random(6472)
    digest = hashlib.sha256()
    clashes = 0
    for _ in range(600):
        seed, iv, reconstructions = _nested_array_box(gen)
        cfg = cfg_of(unbounded_width=gen.choice([0, 1, 4]))
        for _ in range(10):
            drawn = sample_intervals_arrays(iv, seed, cfg, rng, reconstructions)
            clashes += drawn is None
            digest.update(repr(None if drawn is None else canonical_assignment(drawn)).encode())
    digest.update(repr(rng.getstate()).encode())
    assert clashes > 0
    assert digest.hexdigest() == "0583cfd3e15dae537ff761463a77829d37217f95e7795a1f007559b222ef26cc"


def _intro_parts():
    p = parse_problem(
        "(declare-const x Int)(declare-const y Int)"
        "(assert (<= (- x (* 5 y)) 7))(assert (>= x 0))"
    )
    return p, to_nnf(preprocess(p.assertion))


class TestExploitEpoch:
    def test_degenerate_box_stops_after_one_round(self):
        p, f = _intro_parts()
        layout = SampleLayout(p.declarations)
        iv = IntervalMap({X: Interval(12, 12), Y: Interval(2, 2)})
        seed = Model(ints={"x": 12, "y": 2})
        epoch = exploit_epoch(
            iv, seed, layout.predicate(f), layout, DedupSet(10_000), cfg_of(), random.Random(0),
        )
        assert len(epoch.fresh_samples) == 1
        assert epoch.stats.rounds_run == 1  # unique rate collapsed immediately

    def test_wide_box_runs_all_rounds(self):
        p, f = _intro_parts()
        layout = SampleLayout(p.declarations)
        iv = IntervalMap({X: Interval(0, 15), Y: Interval(2, 10**6)})
        seed = Model(ints={"x": 12, "y": 2})
        cfg = cfg_of(rounds_per_epoch=5, samples_per_round=100, unique_rate_threshold=0.05)
        epoch = exploit_epoch(
            iv, seed, layout.predicate(f), layout, DedupSet(10_000), cfg, random.Random(0),
        )
        assert epoch.stats.rounds_run == 5

    def test_all_emitted_samples_fresh_and_satisfying(self):
        p, f = _intro_parts()
        layout = SampleLayout(p.declarations)
        iv = IntervalMap({X: Interval(0, 15), Y: Interval(2, 40)})
        seed = Model(ints={"x": 12, "y": 2})
        dedup = DedupSet(10_000)
        cfg = cfg_of(rounds_per_epoch=3, samples_per_round=200)
        epoch = exploit_epoch(
            iv, seed, layout.predicate(f), layout, dedup, cfg, random.Random(5),
        )
        keys = [canonical_assignment(s) for s in epoch.fresh_samples]
        assert len(keys) == len(set(keys))
        for s in epoch.fresh_samples:
            assert eval_formula(f, s)

    def test_each_draw_is_fresh_duplicate_or_clash(self):
        # i and j may alias, and then the second access misses its interval
        p = parse_problem("(declare-const i Int)(declare-const j Int)(declare-const a (Array Int Int))")
        layout = SampleLayout(p.declarations)
        iv = IntervalMap({I: Interval(0, 3), J: Interval(0, 3), Select(A, I): Interval(0, 2), Select(A, J): Interval(6, 7)})
        seed = Model(ints={"i": 0, "j": 1}, funcs={"a": FuncValue(0, {0: 1, 1: 6})})
        pred = layout.predicate(Atom(Rel.EQ, IntConst(0), IntConst(0)))
        cfg = cfg_of(rounds_per_epoch=3, samples_per_round=40, unique_rate_threshold=0.0)

        checked = []  # one vector per draw that is no clash

        def counting(*values):
            checked.append(values)
            return pred(*values)

        def epoch_counts(**kw):
            checked.clear()
            epoch = exploit_epoch(iv, seed, counting, layout, DedupSet(10_000), cfg, random.Random(2), **kw)
            assert epoch.stats.draws == len(checked) + epoch.stats.clashes
            assert epoch.stats.duplicates == len(checked) - len(epoch.fresh_samples)
            return epoch.stats, len(epoch.fresh_samples)

        full, _ = epoch_counts()
        assert full.draws == 120 and full.clashes > 0 and full.duplicates > 0
        cut, fresh = epoch_counts(remaining_budget=30)  # the budget stops a round early
        assert fresh == 30 and cut.draws < 120
        late, _ = epoch_counts(deadline=time.monotonic() - 1)
        assert (late.draws, late.duplicates, late.rounds_run) == (0, 0, 1)


class TestHandOver:
    """An epoch hands its fresh samples to `on_fresh` in chunks: every 64
    draws of a round, and once when the epoch ends."""

    @pytest.mark.parametrize(
        "box, cfg, kw",
        [
            # every draw fresh; 150-draw rounds end inside a chunk
            ((0, 15, 2, 10**6), dict(rounds_per_epoch=3, samples_per_round=150), {}),
            ((0, 15, 2, 10**6), dict(rounds_per_epoch=3, samples_per_round=150), dict(remaining_budget=100)),
            # 128 points, enumerated in one round
            ((0, 15, 2, 9), dict(samples_per_round=200), {}),
            # 64 points drawn at random: some chunks are all duplicates
            ((0, 15, 2, 5), dict(rounds_per_epoch=5, samples_per_round=40, unique_rate_threshold=0.0), {}),
        ],
        ids=["wide", "budget", "enumerated", "duplicates"],
    )
    def test_chunks_join_to_the_fresh_samples(self, box, cfg, kw):
        p, f = _intro_parts()
        layout = SampleLayout(p.declarations)
        check = layout.predicate(f)
        drawn = []  # the vector of each draw, in order

        def pred(*values):
            drawn.append(values)
            return check(*values)

        handed = []  # (draws made, samples) of each hand-over
        x_lo, x_hi, y_lo, y_hi = box
        iv = IntervalMap({X: Interval(x_lo, x_hi), Y: Interval(y_lo, y_hi)})
        epoch = exploit_epoch(
            iv, Model(ints={"x": 12, "y": 2}), pred, layout, DedupSet(10_000), cfg_of(**cfg), random.Random(3),
            on_fresh=lambda samples: handed.append((len(drawn), samples)), **kw,
        )
        assert [s for _, chunk in handed for s in chunk] == epoch.fresh_samples
        assert all(chunk for _, chunk in handed)
        assert handed[-1][0] == len(drawn) == epoch.stats.draws
        first_draw = {values: i for i, values in reversed(list(enumerate(drawn)))}
        for made, chunk in handed:  # each sample handed over within 64 draws of its own
            assert all(made - first_draw[layout.vector(s)] <= 64 for s in chunk)
        if epoch.stats.duplicates == 0:  # every chunk holds a fresh sample
            assert all(b - a <= 64 for a, b in zip([0] + [m for m, _ in handed], [m for m, _ in handed]))

    def test_the_first_sample_leaves_with_the_first_chunk(self, monkeypatch):
        # one epoch of 1,000 random draws: on_sample fires after 64 of them;
        # each draw is checked once, after the check of the injected seed
        p, _ = _intro_parts()
        predicate, drawn, events = SampleLayout.predicate, [], []

        def counting_predicate(layout, formula):
            check = predicate(layout, formula)

            def counted(*values):
                drawn.append(1)
                return check(*values)

            return counted

        monkeypatch.setattr(SampleLayout, "predicate", counting_predicate)
        cfg = cfg_of(rounds_per_epoch=1, samples_per_round=1000, inject_seed=Model(ints={"x": 12, "y": 2}))
        stats = sample_formula(
            p, cfg, None, on_sample=lambda s: events.append(("sample", len(drawn))),
            on_epoch=lambda e: events.append(("epoch", len(drawn))),
        )
        assert stats.epochs == 1 and stats.draws == 1000
        assert events[0] == ("sample", 1 + 64) and events[-1] == ("epoch", 1 + 1000)
        assert [kind for kind, _ in events] == ["sample"] * stats.unique_samples + ["epoch"]


def _counting_models(monkeypatch) -> list:
    """Count the Models built from here on: a layout's builder binds the
    class when it is generated, so `Model.__init__` is counted."""
    built = []
    init = Model.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Model, "__init__", counting_init)
    return built


class TestOneModelPerFreshSample:
    """An epoch builds one Model per fresh sample and none for a duplicate
    or a clash."""

    def test_int_box_with_duplicates(self, monkeypatch):
        p, f = _intro_parts()
        layout = SampleLayout(p.declarations)
        iv = IntervalMap({X: Interval(0, 15), Y: Interval(2, 3)})  # 32 points, drawn at random
        seed = Model(ints={"x": 12, "y": 2})
        cfg = cfg_of(rounds_per_epoch=3, samples_per_round=20, unique_rate_threshold=0.0)
        built = _counting_models(monkeypatch)
        epoch = exploit_epoch(iv, seed, layout.predicate(f), layout, DedupSet(10_000), cfg, random.Random(5))
        assert epoch.stats.duplicates > 0 and epoch.stats.enumerated is False
        assert len(built) == len(epoch.fresh_samples)

    def test_array_box_with_clashes(self, monkeypatch):
        p = parse_problem("(declare-const i Int)(declare-const j Int)(declare-const a (Array Int Int))")
        layout = SampleLayout(p.declarations)
        iv = IntervalMap({I: Interval(0, 3), J: Interval(0, 3), Select(A, I): Interval(0, 2), Select(A, J): Interval(6, 7)})
        seed = Model(ints={"i": 0, "j": 1}, funcs={"a": FuncValue(0, {0: 1, 1: 6})})
        pred = layout.predicate(Atom(Rel.EQ, IntConst(0), IntConst(0)))
        cfg = cfg_of(rounds_per_epoch=3, samples_per_round=40, unique_rate_threshold=0.0)
        built = _counting_models(monkeypatch)
        epoch = exploit_epoch(iv, seed, pred, layout, DedupSet(10_000), cfg, random.Random(2))
        assert epoch.stats.clashes > 0 and epoch.stats.duplicates > 0
        assert len(built) == len(epoch.fresh_samples)


class TestEnumeratedEpoch:
    """A box of at most `samples_per_round` points without select-like keys
    is visited once per point, in one round, through the same checks."""

    def _epoch(self, iv, seed, cfg, rng, dedup=None, **kw):
        p, f = _intro_parts()
        layout = SampleLayout(p.declarations)
        return exploit_epoch(iv, seed, layout.predicate(f), layout, dedup or DedupSet(10_000), cfg, rng, **kw)

    def test_point_box_draws_once_and_takes_no_random_number(self):
        rng = random.Random(4)
        state = rng.getstate()
        iv = IntervalMap({X: Interval(12, 12), Y: Interval(2, 2)})
        epoch = self._epoch(iv, Model(ints={"x": 12, "y": 2}), cfg_of(), rng)
        assert [s.ints for s in epoch.fresh_samples] == [{"x": 12, "y": 2}]
        assert (epoch.stats.draws, epoch.stats.rounds_run, epoch.stats.enumerated) == (1, 1, True)
        assert rng.getstate() == state

    @pytest.mark.parametrize("width", [1, 3, 10])
    def test_small_box_yields_each_point_once(self, width):
        # (x, y) in [0, 3] x [2, 1 + width]: at most samples_per_round points
        iv = IntervalMap({X: Interval(0, 3), Y: Interval(2, 1 + width)})
        cfg = cfg_of(samples_per_round=40, rounds_per_epoch=5)
        epoch = self._epoch(iv, Model(ints={"x": 1, "y": 2}), cfg, random.Random(width))
        points = [(s.ints["x"], s.ints["y"]) for s in epoch.fresh_samples]
        assert sorted(points) == [(x, y) for x in range(4) for y in range(2, 2 + width)]
        assert epoch.stats.draws == 4 * width and epoch.stats.duplicates == 0
        assert epoch.stats.rounds_run == 1 and epoch.stats.enumerated

    def test_order_is_shuffled_by_the_rng(self):
        iv = IntervalMap({X: Interval(0, 15), Y: Interval(2, 3)})
        seed = Model(ints={"x": 1, "y": 2})
        epochs = [self._epoch(iv, seed, cfg_of(), random.Random(k)) for k in range(5)]
        orders = {tuple(map(canonical_assignment, epoch.fresh_samples)) for epoch in epochs}
        assert len(orders) == 5

    def test_box_one_point_too_large_is_drawn_at_random(self):
        # 41 points, 40 draws per round: the random draws of the reference
        # chain, deduplicated in order, and the same random numbers
        p, _ = _intro_parts()
        iv = IntervalMap({X: Interval(0, 40), Y: Interval(8, 8)})
        seed = Model(ints={"x": 12, "y": 8})
        cfg = cfg_of(samples_per_round=40, rounds_per_epoch=1)
        rng, reference_rng = random.Random(8), random.Random(8)
        epoch = self._epoch(iv, seed, cfg, rng)
        expected, seen = [], set()
        for _ in range(40):
            key = canonical_assignment(restrict_to_problem(sample_intervals(iv, seed, cfg, reference_rng), p))
            if key not in seen:
                seen.add(key)
                expected.append(key)
        assert [canonical_assignment(s) for s in epoch.fresh_samples] == expected
        assert epoch.stats.draws == 40 and epoch.stats.duplicates > 0 and not epoch.stats.enumerated
        assert rng.getstate() == reference_rng.getstate()

    def test_budget_cut_keeps_the_counts_and_is_not_enumerated(self):
        iv = IntervalMap({X: Interval(0, 9), Y: Interval(2, 3)})
        seed = Model(ints={"x": 1, "y": 2})
        dedup = DedupSet(10_000)
        for x in range(0, 10, 2):  # half the points are known already
            dedup.add((x, 2))
        epoch = self._epoch(iv, seed, cfg_of(), random.Random(3), dedup, remaining_budget=6)
        stats = epoch.stats
        assert len(epoch.fresh_samples) == 6 and stats.duplicates > 0
        assert stats.draws == len(epoch.fresh_samples) + stats.duplicates + stats.clashes < 20
        assert not stats.enumerated

    def test_point_outside_the_formula_raises_soundness_violation(self):
        # x - 5y <= 7 fails at x = 18, y = 2
        iv = IntervalMap({X: Interval(16, 18), Y: Interval(2, 2)})
        with pytest.raises(SoundnessViolation):
            self._epoch(iv, Model(ints={"x": 16, "y": 2}), cfg_of(), random.Random(0))


def _reference_epoch(problem, iv, seed, cfg, rng, budget):
    """The canonical fresh samples and the draws of an epoch over a box of
    Int variable keys, by a plain loop over the Model-based chain: the
    shuffled points of a box of at most `samples_per_round` points, or the
    draws of :func:`sample_intervals`, each restricted to the problem and
    canonicalized, deduplicated in order with the rounds, unique-rate stop
    and budget of :func:`exploit_epoch`."""
    ranges = []  # clamped around the seed as `sample_intervals` clamps them
    for key, b in iv.entries.items():
        at = seed.ints[key.name]
        ranges.append(range(b.lo if b.lo is not None else at - cfg.unbounded_width,
                            (b.hi if b.hi is not None else at + cfg.unbounded_width) + 1))
    rounds, per_round = cfg.rounds_per_epoch, cfg.samples_per_round
    if math.prod(map(len, ranges)) <= per_round:
        order = list(itertools.product(*ranges))
        rng.shuffle(order)
        points = iter(order)
        rounds, per_round = 1, len(order)

        def draw():
            point = dict(zip((key.name for key in iv.entries), next(points)))
            return Model(ints={**seed.ints, **point}, bools=dict(seed.bools))
    else:
        def draw():
            return sample_intervals(iv, seed, cfg, rng)

    seen, fresh, draws = set(), [], 0
    for _ in range(rounds):
        new = 0
        for _ in range(per_round):
            draws += 1
            key = canonical_assignment(restrict_to_problem(draw(), problem))
            if key not in seen:
                seen.add(key)
                fresh.append(key)
                new += 1
                if budget is not None and len(fresh) >= budget:
                    return fresh, draws
        if new / per_round < cfg.unique_rate_threshold:
            break
    return fresh, draws


_SIDE = st.one_of(st.none(), st.integers(0, 3), st.integers(0, 10**12))


@st.composite
def _int_epoch_cases(draw):
    """An epoch over a box of Int variable keys: Int and Bool declarations
    in any order, a seed that may miss declared symbols, keys in any order
    over some declared Ints and some undeclared names, each a point or with
    open or closed sides; a config and a budget."""
    sorts = draw(st.lists(st.sampled_from([Sort.INT, Sort.INT, Sort.BOOL]), max_size=6))
    decls = [Declaration(f"s{k}", sort) for k, sort in enumerate(sorts)]
    seed = Model()
    for d in decls:
        if draw(st.booleans()):
            if d.sort == Sort.INT:
                seed.ints[d.name] = draw(st.integers(-50, 50))
            else:
                seed.bools[d.name] = draw(st.booleans())
    ints = [d.name for d in decls if d.sort == Sort.INT]
    names = draw(st.permutations(ints + [f"w{k}" for k in range(draw(st.integers(0, 2)))]))
    iv = IntervalMap()
    for name in names[: draw(st.integers(0, len(names)))]:
        at = seed.ints.setdefault(name, draw(st.integers(-50, 50)))
        if draw(st.booleans()):
            iv.entries[IntVar(name)] = Interval(at, at)
        else:
            below, above = draw(_SIDE), draw(_SIDE)
            iv.entries[IntVar(name)] = Interval(None if below is None else at - below, None if above is None else at + above)
    cfg = cfg_of(
        samples_per_round=draw(st.sampled_from([1, 5, 64, 100, 130])),
        rounds_per_epoch=draw(st.integers(1, 3)),
        unbounded_width=draw(st.sampled_from([0, 2, 10**6])),
        unique_rate_threshold=draw(st.sampled_from([0.0, 0.05, 0.9])),
    )
    budget = draw(st.one_of(st.none(), st.integers(1, 150)))
    return ParsedProblem("QF_LIA", decls, Atom(Rel.EQ, IntConst(0), IntConst(0))), seed, iv, cfg, budget


def _int_case(sorts, seed_ints, box, cfg, budget=None):
    decls = [Declaration(f"s{k}", sort) for k, sort in enumerate(sorts)]
    problem = ParsedProblem("QF_LIA", decls, Atom(Rel.EQ, IntConst(0), IntConst(0)))
    iv = IntervalMap({IntVar(name): Interval(lo, hi) for name, (lo, hi) in box.items()})
    return problem, Model(ints=dict(seed_ints), bools={"s1": True}), iv, cfg, budget


class TestChunkLoop:
    """The generated chunk loop of :func:`epoch_drawer`, run by
    :func:`exploit_epoch`: its stream, its dedup set and its kernels."""

    @given(_int_epoch_cases())
    @example(_int_case([Sort.INT, Sort.BOOL, Sort.INT], {"s0": 3, "s2": 4}, {"s2": (4, 4), "s0": (3, 3)}, cfg_of()))
    @example(_int_case([Sort.INT, Sort.BOOL, Sort.INT], {"s0": 3, "s2": 4}, {"s2": (0, 3), "s0": (1, 5)}, cfg_of(samples_per_round=20)))
    @example(_int_case([Sort.INT, Sort.BOOL, Sort.INT], {"s0": 3, "s2": 4}, {"s2": (None, 9)}, cfg_of(samples_per_round=100), 70))
    @example(_int_case([Sort.INT, Sort.BOOL, Sort.INT, Sort.INT], {"s0": 3, "s2": 4, "w0": 1}, {"w0": (0, None), "s2": (None, None)},
                       cfg_of(samples_per_round=100, rounds_per_epoch=2, unbounded_width=3, unique_rate_threshold=0.0), 130))
    @settings(max_examples=200, deadline=None)
    def test_epoch_equals_the_reference_chain(self, case):
        problem, seed, iv, cfg, budget = case
        layout = SampleLayout(problem.declarations)
        rng, reference_rng = random.Random(7), random.Random(7)
        epoch = exploit_epoch(
            iv, seed, layout.predicate(problem.assertion), layout, DedupSet(10_000), cfg, rng, remaining_budget=budget
        )
        fresh, draws = _reference_epoch(problem, iv, seed, cfg, reference_rng, budget)
        assert [canonical_assignment(s) for s in epoch.fresh_samples] == fresh
        assert (epoch.stats.draws, epoch.stats.duplicates, epoch.stats.clashes) == (draws, draws - len(fresh), 0)
        assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("cap", [5, 70])
    def test_a_cap_crossed_inside_a_chunk(self, cap, monkeypatch):
        # 128 points drawn at random in rounds of 100, so duplicates come
        # on both sides of the switch; it falls inside a 64-draw chunk
        p, f = _intro_parts()
        layout = SampleLayout(p.declarations)
        check = layout.predicate(f)
        iv = IntervalMap({X: Interval(0, 15), Y: Interval(2, 9)})
        seed = Model(ints={"x": 12, "y": 2})
        cfg = cfg_of(rounds_per_epoch=3, samples_per_round=100, unique_rate_threshold=0.0)
        dedup, states = DedupSet(cap), []  # (keys held, digests stored) before each draw's check

        def pred(*values):
            states.append((len(dedup.keys), dedup.probabilistic))
            assert all(type(k) is (bytes if dedup.probabilistic else tuple) for k in dedup.keys)
            return check(*values)

        epoch = exploit_epoch(iv, seed, pred, layout, dedup, cfg, random.Random(3))
        uncapped = exploit_epoch(iv, seed, check, layout, DedupSet(10_000), cfg, random.Random(3))
        assert epoch.fresh_samples == uncapped.fresh_samples and epoch.stats == uncapped.stats
        assert all(digests == (held >= cap) for held, digests in states)  # exact up to the cap
        switch = next(i for i, (_, digests) in enumerate(states) if digests)
        assert switch % cfg.samples_per_round % 64 != 0
        assert dedup.probabilistic and len(dedup.keys) == len(epoch.fresh_samples) > cap

        def run():
            samples = []
            inject = Model(ints={"x": 12, "y": 2})
            stats = sample_formula(p, dataclasses.replace(cfg, inject_seed=inject), None, random.Random(3), on_sample=samples.append)
            return stats, samples

        full, samples = run()
        monkeypatch.setattr(sampler_mod, "_DEDUP_CAP", cap)
        capped, capped_samples = run()
        assert capped_samples == samples and capped.probabilistic_dedup and not full.probabilistic_dedup

    _NAMES = {"x": 'q"x', "y": "b{y", "p": "p)z", "a": "n\nw"}

    def _quoted_run(self, names: dict) -> list:
        text = (
            "(declare-const x Int)(declare-const y Int)(declare-const p Bool)(declare-const a (Array Int Int))"
            "(assert (and (<= 0 x 40) (<= (- 20) y 3) p (<= 0 (select a x) 9) (<= (select a 7) 5)))"
        )
        for plain, name in names.items():
            text = text.replace(f" {plain} ", f" |{name}| ").replace(f" {plain})", f" |{name}|)")
        problem = parse_problem(text)
        seed = Model(ints={names["x"]: 1, names["y"]: 0}, bools={names["p"]: True}, funcs={names["a"]: FuncValue(2)})
        samples = []
        cfg = cfg_of(rounds_per_epoch=2, samples_per_round=100, inject_seed=seed)
        sample_formula(problem, cfg, None, random.Random(5), on_sample=samples.append)
        plain = {name: p for p, name in names.items()}
        return [
            Model(*({plain[name]: v for name, v in group.items()} for group in (s.ints, s.bools, s.funcs)))
            for s in samples
        ]

    def test_quoted_names_give_the_samples_of_plain_names(self, monkeypatch):
        texts = []
        build = compile
        monkeypatch.setattr(sampler_mod, "compile", lambda source, *rest: texts.append(source) or build(source, *rest), raising=False)
        sampler_mod._chunk_factory.cache_clear()
        quoted = self._quoted_run(self._NAMES)
        assert len(quoted) > 100
        assert quoted == self._quoted_run({name: name for name in self._NAMES})
        assert texts and not any(name in text for text in texts for name in self._NAMES.values())

    def test_the_generated_text_holds_no_symbol_name(self, monkeypatch):
        texts = []
        build = compile
        monkeypatch.setattr(sampler_mod, "compile", lambda source, *rest: texts.append(source) or build(source, *rest), raising=False)
        sampler_mod._chunk_factory.cache_clear()
        sampler_mod._model_factory.cache_clear()
        names = [name + "_zq" for name in _AWKWARD_NAMES]
        decls = [Declaration(name, sort) for name, sort in zip(names, itertools.cycle([Sort.INT, Sort.BOOL, Sort.ARRAY]))]
        layout = SampleLayout(decls)
        seed = Model(ints={d.name: 0 for d in decls if d.sort == Sort.INT}, funcs={d.name: FuncValue(1) for d in decls if d.sort == Sort.ARRAY})
        boxes = [  # random, enumerated, and array steps
            IntervalMap({IntVar(names[0]): Interval(0, 10**6)}),
            IntervalMap({IntVar(names[0]): Interval(0, 3)}),
            IntervalMap({Select(ArrayVar(names[2]), IntVar(names[0])): Interval(0, 5)}),
        ]
        pred = layout.predicate(Atom(Rel.EQ, IntConst(0), IntConst(0)))
        for iv in boxes:
            epoch = exploit_epoch(iv, seed, pred, layout, DedupSet(10_000), cfg_of(samples_per_round=10), random.Random(0))
            assert epoch.fresh_samples and set(epoch.fresh_samples[0].ints) == set(names[::3])
            layout.model(layout.vector(epoch.fresh_samples[0]))
        assert sampler_mod._chunk_factory.cache_info().currsize == 3 and len(texts) == 4
        assert not any(name in text for text in texts for name in names)

    def test_two_problems_of_one_shape_compile_once(self):
        sampler_mod._chunk_factory.cache_clear()
        for names in (("x", "y"), ("u", "v")):
            layout = SampleLayout([Declaration(name, Sort.INT) for name in names])
            iv = IntervalMap({IntVar(names[1]): Interval(0, 10**6), IntVar(names[0]): Interval(-5, 5)})
            seed = Model(ints=dict.fromkeys(names, 0))
            pred = layout.predicate(Atom(Rel.EQ, IntConst(0), IntConst(0)))
            epoch = exploit_epoch(iv, seed, pred, layout, DedupSet(10_000), cfg_of(samples_per_round=100), random.Random(1))
            assert len(epoch.fresh_samples) > 100 and set(epoch.fresh_samples[0].ints) == set(names)
        info = sampler_mod._chunk_factory.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_the_kernel_cache_is_bounded(self):
        sampler_mod._chunk_factory.cache_clear()
        shapes = [sorts for k in range(6) for sorts in itertools.product(list(Sort), repeat=k)]
        assert len(shapes) > 256
        for sorts in shapes:
            sampler_mod._chunk_factory(sorts, (), "enumerate")
        info = sampler_mod._chunk_factory.cache_info()
        assert info.maxsize == 256 and info.currsize == 256 and info.misses == len(shapes)
        sampler_mod._chunk_factory.cache_clear()


class TestSamplerConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples_per_round", 0), ("samples_per_round", -5), ("rounds_per_epoch", 0), ("total_time_limit", 0),
            ("epoch_time_limit", -1.0), ("max_samples", -1), ("random_bound", -1), ("unbounded_width", -1),
            ("unique_rate_threshold", 1.5), ("strategy", "greedy"), ("total_time_limit", math.nan),
            ("epoch_time_limit", math.nan),
        ],
    )
    def test_values_that_cannot_sample_are_rejected(self, field, value):
        with pytest.raises(ConfigError):
            cfg_of(**{field: value})


class TestDedupSet:
    def test_exact_then_probabilistic(self):
        d = DedupSet(cap=4)
        for i in range(10):
            assert d.add((i,))
        assert d.probabilistic
        for i in range(10):
            assert not d.add((i,))  # still deduplicates after the switch

    def test_each_key_is_hashed_once(self):
        hashes = []

        class Key(int):
            def __hash__(self):
                hashes.append(int(self))
                return int.__hash__(self)

        d = DedupSet(cap=10)
        assert d.add((Key(1),)) and not d.add((Key(1),)) and d.add((Key(2),))
        assert hashes == [1, 1, 2]

    def test_digests_of_equal_function_values_are_equal(self):
        d = DedupSet(cap=1)
        assert d.add((FuncValue(0, {1: 2, 3: 4}),)) and d.probabilistic
        assert not d.add((FuncValue(0, {3: 4, 1: 2}),))  # same cells, other insertion order


class TestSampleFormula:
    def test_intro_epoch_one_intervals_exact(self):
        p, _ = _intro_parts()
        cfg = cfg_of(
            max_samples=10,
            inject_seed=Model(ints={"x": 12, "y": 2}),
        )
        epochs = []
        stats = sample_formula(p, cfg, None, on_epoch=epochs.append)
        assert stats.epochs >= 1
        first = epochs[0].intervals
        assert first.get(X) == Interval(0, 15)
        assert first.get(Y) == Interval(2, None)

    def test_max_samples_one(self):
        p, _ = _intro_parts()
        cfg = cfg_of(max_samples=1, inject_seed=Model(ints={"x": 12, "y": 2}))
        collected = []
        stats = sample_formula(p, cfg, None, on_sample=collected.append)
        assert stats.unique_samples == 1 and len(collected) == 1
        assert stats.epochs == 1

    def test_run_counts_sum_the_epoch_counts(self):
        p = parse_problem(
            "(declare-const i Int)(declare-const j Int)(declare-const a (Array Int Int))"
            "(assert (and (<= 0 i 3) (<= 0 j 3) (<= 0 (select a i) 2) (<= 6 (select a j) 7)))"
        )
        epochs = []
        cfg = cfg_of(max_samples=50, samples_per_round=40, rounds_per_epoch=3, rng_seed=1)
        stats = sample_formula(p, cfg, LocalSolverClient(), on_epoch=epochs.append)
        last = epochs[-1].stats
        assert stats.stop_reason == "max samples" and last.draws < last.rounds_run * cfg.samples_per_round
        assert stats.draws == stats.unique_samples + stats.duplicates + stats.clashes
        assert stats.duplicates > 0
        for name in ("draws", "duplicates", "clashes"):
            assert getattr(stats, name) == sum(getattr(e.stats, name) for e in epochs)

    def test_bad_injected_seed_rejected(self):
        p, _ = _intro_parts()
        drawn = []
        cfg = cfg_of(inject_seed=Model(ints={"x": -1, "y": 0}))
        with pytest.raises(NotAModel):
            sample_formula(p, cfg, None, on_sample=drawn.append, on_epoch=drawn.append)
        assert drawn == []

    @pytest.mark.parametrize(
        "text",
        [
            # the seed x = 3 satisfies the formula without reaching the missing symbol
            "(declare-const x Int)(declare-const y Int)(assert (or (> x 0) (and (< x 0) (> y 0))))",
            "(declare-const x Int)(declare-fun g (Int) Int)(assert (or (> x 0) (and (< x 0) (<= (g x) 7))))",
            "(declare-const p Bool)(declare-const x Int)(assert (or (> x 0) (and (< x 0) p)))",
        ],
        ids=["int", "function", "bool"],
    )
    def test_injected_seed_missing_a_symbol_rejected(self, text):
        drawn = []
        cfg = cfg_of(inject_seed=Model(ints={"x": 3}), max_samples=10)
        with pytest.raises(UnassignedSymbol):
            sample_formula(parse_problem(text), cfg, None, on_sample=drawn.append, on_epoch=drawn.append)
        assert drawn == []

    def test_box_wider_than_the_formula_raises_soundness_violation(self, monkeypatch):
        # intro's box for the seed (12, 2) is x in [0, 15]; x up to 10^6
        # breaks x - 5y <= 7 for small y, and every draw is checked
        p, _ = _intro_parts()
        product_to_intervals = strengthen_mod.product_to_intervals

        def widened(product, seed, *run):  # the run's literal forms and deadline
            iv = product_to_intervals(product, seed, *run)
            assert iv.get(X) == Interval(0, 15)
            iv.entries[X] = Interval(0, 10**6)
            return iv

        monkeypatch.setattr(strengthen_mod, "product_to_intervals", widened)
        cfg = cfg_of(max_samples=10_000, inject_seed=Model(ints={"x": 12, "y": 2}), unbounded_width=1000)
        with pytest.raises(SoundnessViolation) as excinfo:
            sample_formula(p, cfg, None)
        message = str(excinfo.value)
        assert message.startswith("sample violates the formula: ")
        ints, bools, funcs = ast.literal_eval(message.split(": ", 1)[1])
        offending = Model(ints=dict(ints), bools=dict(bools), funcs=dict(funcs))
        assert set(offending.ints) == {"x", "y"} and not bools and not funcs
        assert 15 < offending.ints["x"] <= 10**6
        assert not eval_formula(p.assertion, offending)

    def test_a_deadline_passed_inside_the_array_pipeline_stops_the_run(self, monkeypatch):
        # 40 nested selects alias in about 1,560 literals; strengthening's
        # clock jumps a day ahead at its 50th read, well inside them
        class Clock:
            reads = 0

            def monotonic(self) -> float:
                self.reads += 1
                return time.monotonic() + (86400.0 if self.reads >= 50 else 0.0)

        clock = Clock()
        monkeypatch.setattr(strengthen_mod, "time", clock)
        stats = sample_formula(nested_selects(40), cfg_of(strategy="blocking", max_samples=10), LocalSolverClient())
        assert (stats.stop_reason, stats.epochs, stats.unique_samples, clock.reads) == ("total time limit", 0, 0, 50)

    def test_no_duplicates_across_epochs(self):
        p = parse_problem(
            "(declare-const x Int)(declare-const y Int)"
            "(assert (and (<= (+ x y) 20) (>= x 0) (>= y 0)))"
        )
        cfg = cfg_of(strategy="blocking", max_samples=150, samples_per_round=50, rounds_per_epoch=4)
        seen = []
        sample_formula(p, cfg, LocalSolverClient(), on_sample=seen.append)
        keys = [canonical_assignment(s) for s in seen]
        assert len(keys) == len(set(keys)) >= 100

    def test_blocking_seeds_leave_prior_boxes(self):
        p = parse_problem("(declare-const x Int)(assert (and (<= 0 x) (<= x 30)))")
        cfg = cfg_of(strategy="blocking", max_samples=25, samples_per_round=20, rounds_per_epoch=2)
        epochs = []
        sample_formula(p, cfg, LocalSolverClient(), on_epoch=epochs.append)
        for i, epoch in enumerate(epochs):
            for prior in epochs[:i]:
                # a non-reset epoch seed never lies inside an earlier box
                if not contains(prior.intervals, epoch.seed):
                    continue
        # all samples unique and within [0, 30]
        all_samples = [s for e in epochs for s in e.fresh_samples]
        assert len({canonical_assignment(s) for s in all_samples}) == len(all_samples)

    def test_deterministic_stream_with_scripted_transcript(self):
        p, f = _intro_parts()

        def run():
            transcript = ScriptedClient(
                [
                    sat(Model(ints={"x": 12, "y": 2})),
                    sat(Model(ints={"x": 0, "y": 5})),
                    sat(Model(ints={"x": 3, "y": 1})),
                ]
            )
            out = []
            cfg = cfg_of(max_samples=120, samples_per_round=50, rounds_per_epoch=2, rng_seed=9)
            sample_formula(p, cfg, transcript, on_sample=out.append)
            return [canonical_assignment(s) for s in out]

        assert run() == run()

    def test_solver_transcript_replay_counts_calls(self):
        p, _ = _intro_parts()
        transcript = ScriptedClient([sat(Model(ints={"x": 12, "y": 2})), sat(Model(ints={"x": 1, "y": 3}))])
        cfg = cfg_of(max_samples=15, samples_per_round=10, rounds_per_epoch=1)
        stats = sample_formula(p, cfg, transcript)
        assert stats.solver_calls == 2
        assert stats.unique_samples == 15

    def test_unknown_max_solve_is_asked_again_as_a_plain_solve(self):
        p, _ = _intro_parts()
        unknown = SolverVerdict(VerdictKind.UNKNOWN, reason="search budget exhausted")
        transcript = ScriptedClient([unknown, sat(Model(ints={"x": 12, "y": 2})), sat(Model(ints={"x": 1, "y": 3}))])
        cfg = cfg_of(max_samples=15, samples_per_round=10, rounds_per_epoch=1)
        stats = sample_formula(p, cfg, transcript)
        assert stats.unique_samples == 15 and stats.stop_reason == "max samples"
        assert stats.solver_calls == 3 and stats.maxsmt_degradations == 1
        first, retry, _ = transcript.requests
        assert first.soft and not retry.soft and retry.hard == first.hard

    def test_solver_failure_after_an_epoch_stops_the_run(self):
        p, _ = _intro_parts()
        error = SolverVerdict(VerdictKind.ERROR, reason="solver process died")
        transcript = ScriptedClient([sat(Model(ints={"x": 12, "y": 2})), sat(Model(ints={"x": 1, "y": 3})), error])
        cfg = cfg_of(max_samples=1000, samples_per_round=10, rounds_per_epoch=1)
        out = []
        stats = sample_formula(p, cfg, transcript, on_sample=out.append)
        assert stats.stop_reason == "solver failure: solver process died"
        assert len(transcript.requests) == stats.solver_calls == 3 and stats.epochs == 2  # the failed query counts
        assert stats.unique_samples == len(out) > 0
        wall = dict(stats.wall_time)
        assert sum(wall.values()) - wall["total"] == pytest.approx(wall["total"], abs=1e-9)
        # before the first epoch there is nothing to keep: the failure raises
        with pytest.raises(SolverFailure, match="solver process died"):
            sample_formula(p, cfg, ScriptedClient([error]))

    def test_unsat_problem_raises(self):
        p = parse_problem("(declare-const x Int)(assert (>= x 1))(assert (<= x 0))")
        with pytest.raises(UnsatFormula):
            sample_formula(p, cfg_of(max_samples=5), LocalSolverClient())
        # under blocking, the empty history is exhaustive, but no model was drawn
        with pytest.raises(UnsatFormula):
            sample_formula(p, cfg_of(strategy="blocking", max_samples=5), LocalSolverClient())

    def test_array_problem_end_to_end(self):
        p = parse_problem(
            "(declare-const i Int)(declare-const a (Array Int Int))"
            "(assert (and (<= (select a i) 5) (>= i 0) (<= i 3)))"
        )
        seed = Model(ints={"i": 2}, funcs={"a": FuncValue(0)})
        cfg = cfg_of(max_samples=60, inject_seed=seed, samples_per_round=30, rounds_per_epoch=3)
        out = []
        stats = sample_formula(p, cfg, None, on_sample=out.append)
        assert stats.unique_samples == len(out) == 60
        for s in out:
            assert eval_formula(p.assertion, s)

    def test_symbol_named_like_a_fresh_name_beside_an_access(self):
        # a user symbol may spell any name the array pipeline could invent
        p = parse_problem(
            "(declare-const |!g0| Int)(declare-const a (Array Int Int))"
            "(assert (and (<= 0 (select a 0)) (<= (select a 0) 5) (<= 10 |!g0|) (<= |!g0| 40)))"
        )
        out = []
        cfg = cfg_of(max_samples=80, samples_per_round=40, rounds_per_epoch=2)
        stats = sample_formula(p, cfg, LocalSolverClient(), on_sample=out.append)
        assert stats.unique_samples == len(out) == 80
        assert all(eval_formula(p.assertion, s) for s in out)
        assert len({s.ints["!g0"] for s in out}) > 1

    def test_deeply_nested_formula(self):
        f = deep_and_or(300)
        p = ParsedProblem(None, [Declaration("x", Sort.INT)], f)
        out = []
        cfg = cfg_of(max_samples=40, samples_per_round=50)
        stats = sample_formula(p, cfg, LocalSolverClient(), on_sample=out.append)
        assert stats.unique_samples == len(out) == 40
        assert all(eval_formula(f, s) for s in out)

    def test_phases_sum_to_total_with_slow_callbacks(self):
        p, _ = _intro_parts()
        cfg = cfg_of(max_samples=30, samples_per_round=10, rounds_per_epoch=1)
        stats = sample_formula(
            p, cfg, LocalSolverClient(), on_sample=lambda s: time.sleep(0.002),
            on_epoch=lambda e: time.sleep(0.005),
        )
        wall = dict(stats.wall_time)
        total = wall.pop("total")
        assert wall["emit"] > 0.5 * total
        assert sum(wall.values()) == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("stop", ["total time limit", "no solver configured", "interrupted", "exhausted"])
    def test_phases_sum_to_total_on_other_stop_reasons(self, stop):
        p, _ = _intro_parts()
        cfg = cfg_of(samples_per_round=10, rounds_per_epoch=1, total_time_limit=0.05 if stop == "total time limit" else 900)
        if stop == "exhausted":
            p = parse_problem("(declare-const x Int)(declare-const y Int)(assert (and (<= 0 x 2) (<= 0 y 2)))")
            cfg.strategy, cfg.total_time_limit = "blocking", 30
        taken = []

        def on_sample(s):
            if stop == "interrupted" and len(taken) == 20:
                raise KeyboardInterrupt
            taken.append(s)

        client = None if stop == "no solver configured" else LocalSolverClient()
        stats = sample_formula(p, cfg, client, on_sample=on_sample)
        assert stats.stop_reason == stop
        wall = dict(stats.wall_time)
        total = wall.pop("total")
        assert list(wall) == ["setup", "solve", "implicant", "strengthen", "sample", "emit"]
        assert min(wall.values()) >= 0 and wall["setup"] > 0
        assert sum(wall.values()) == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize(
        "text, models, calls",
        [
            ("(declare-const x Int)(assert (<= 0 x 0))", 1, 2),
            ("(declare-const x Int)(assert (and (distinct x 5) (<= 0 x 10)))", 10, None),
            # y <= x cuts the square, so the blocking seeds need several boxes
            ("(declare-const x Int)(declare-const y Int)(assert (and (<= 0 x 6) (<= 0 y 6) (<= y x)))", 28, None),
        ],
        ids=["point", "gap", "triangle"],
    )
    def test_blocking_stops_when_every_model_is_drawn(self, text, models, calls):
        p = parse_problem(text)
        cfg = cfg_of(strategy="blocking", total_time_limit=30, samples_per_round=20, rounds_per_epoch=2)
        out = []
        stats = sample_formula(p, cfg, LocalSolverClient(), on_sample=out.append)
        assert stats.stop_reason == "exhausted" and stats.blocking_resets == 0
        assert stats.unique_samples == len({canonical_assignment(s) for s in out}) == models
        assert all(eval_formula(p.assertion, s) for s in out)
        assert stats.enumerated_epochs == stats.epochs
        assert calls is None or stats.solver_calls == calls

    @pytest.mark.parametrize(
        "text, width",
        [
            # the implicant needs only one disjunct, and p is never drawn
            ("(declare-const x Int)(declare-const p Bool)(assert (and (<= 0 x 0) (or p (>= x 0))))", 10**6),
            # no box bounds y, so a box's negation blocks values of y never drawn
            ("(declare-const x Int)(declare-const y Int)(assert (<= 0 x 0))", 0),
            # the open side is clamped to the seed value, which is all that is drawn
            ("(declare-const x Int)(assert (>= x 0))", 0),
        ],
        ids=["bool", "int-not-keyed", "open-side"],
    )
    def test_blocking_resets_when_the_boxes_are_not_exhaustive(self, text, width):
        cfg = cfg_of(strategy="blocking", total_time_limit=0.3, unbounded_width=width)
        stats = sample_formula(parse_problem(text), cfg, LocalSolverClient())
        assert stats.stop_reason == "total time limit" and stats.blocking_resets > 0

    def test_seed_containment_every_epoch(self):
        p = parse_problem(
            "(declare-const x Int)(declare-const y Int)"
            "(assert (and (<= (* x y) 40) (>= x (- 8)) (<= x 8) (>= y (- 8)) (<= y 8)))"
        )
        cfg = cfg_of(strategy="blocking", max_samples=60, samples_per_round=25, rounds_per_epoch=2)
        epochs = []
        sample_formula(p, cfg, LocalSolverClient(), on_epoch=epochs.append)
        assert epochs
        for e in epochs:
            assert contains(e.intervals, e.seed)
