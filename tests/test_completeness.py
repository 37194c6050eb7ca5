"""Completeness of the sampler on a small fragment, where it holds today.

The fragment:

 * 1-3 Int variables, each between unit bounds ``lo <= x <= hi`` with a
   width ``hi - lo`` of at most 6;
 * 0-2 linear atoms over them (``<=``, ``>=``, ``<``, ``distinct``), some
   under an ``or``;
 * ``samples_per_round`` at least the volume of the variables' bounding
   box, so that one round can draw every point of any box.

With the in-process `LocalSolverClient`, blocking samples exactly the
models, as enumerated over the bounding box with `eval_formula`, and stops
as exhausted: one query per epoch, each epoch taking at least one new
model, and one last query that finds none.  Random samples only models.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler.errors import UnsatFormula
from boxsampler.minisolver import LocalSolverClient
from boxsampler.sampler import SamplerConfig, sample_formula
from boxsampler.smtlib import Declaration, ParsedProblem
from boxsampler.terms import Add, Atom, IntConst, IntVar, Model, Mul, Or, Rel, Sort, conj, eval_formula

RELATIONS = (Rel.LE, Rel.GE, Rel.LT, Rel.NE)


@st.composite
def problems(draw):
    """A problem of the fragment, and each variable's (lo, hi)."""
    n = draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(n)]
    bounds = []
    for _ in names:
        lo = draw(st.integers(-4, 4))
        bounds.append((lo, lo + draw(st.integers(0, 6))))
    atoms = []
    for _ in range(draw(st.integers(0, 2))):
        coeffs = [draw(st.integers(-2, 2)) for _ in names]
        lhs = Add(tuple(Mul((IntConst(c), IntVar(name))) for c, name in zip(coeffs, names)))
        atoms.append(Atom(draw(st.sampled_from(RELATIONS)), lhs, IntConst(draw(st.integers(-6, 6)))))
    if len(atoms) == 2 and draw(st.booleans()):
        atoms = [Or(tuple(atoms))]
    units = [
        Atom(rel, IntVar(name), IntConst(b))
        for name, (lo, hi) in zip(names, bounds)
        for rel, b in ((Rel.GE, lo), (Rel.LE, hi))
    ]
    declarations = [Declaration(name, Sort.INT) for name in names]
    return ParsedProblem("QF_LIA", declarations, conj(units + atoms)), bounds


def _models(problem: ParsedProblem, bounds) -> set[tuple[int, ...]]:
    names = [d.name for d in problem.declarations]
    points = itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
    return {p for p in points if eval_formula(problem.assertion, Model(ints=dict(zip(names, p))))}


def _run(problem: ParsedProblem, cfg: SamplerConfig):
    """The samples of one run, as value tuples in declaration order, and its stats."""
    names = [d.name for d in problem.declarations]
    samples = []
    stats = sample_formula(problem, cfg, LocalSolverClient(), random.Random(cfg.rng_seed),
                           on_sample=lambda m: samples.append(tuple(m.ints[n] for n in names)))
    assert len(samples) == len(set(samples)) == stats.unique_samples
    return set(samples), stats


@settings(max_examples=120, deadline=None)
@given(problems(), st.integers(0, 2**16))
def test_blocking_samples_every_model_and_random_only_models(case, seed):
    problem, bounds = case
    models = _models(problem, bounds)
    volume = math.prod(hi - lo + 1 for lo, hi in bounds)
    cfg = dict(samples_per_round=volume, total_time_limit=2.0, rng_seed=seed)
    if not models:
        with pytest.raises(UnsatFormula):
            _run(problem, SamplerConfig(strategy="blocking", **cfg))
        return
    samples, stats = _run(problem, SamplerConfig(strategy="blocking", **cfg))
    assert samples == models
    assert stats.stop_reason == "exhausted"
    assert stats.solver_calls == stats.epochs + 1 <= len(models) + 1
    cfg.update(max_samples=len(models), total_time_limit=0.02)
    samples, _ = _run(problem, SamplerConfig(strategy="random", **cfg))
    assert samples <= models
