"""Extraction of a model-satisfied implicant from an NNF formula.

Walking top-down, every conjunct is kept, and in every disjunction one
satisfied disjunct is chosen uniformly at random.  The result is a product
term: a set of literals, each satisfied by the model, whose conjunction
implies the source formula.  A literal is one of the shapes that NNF
leaves: an atom, a Bool variable or a negated Bool variable; any other
node below the connectives (a negated atom included) is not NNF.
"""

from __future__ import annotations

import random

from .errors import NotAModel, UnsupportedFeature
from .terms import (
    And,
    Atom,
    BoolConst,
    BoolVar,
    Formula,
    Model,
    Not,
    Or,
    eval_formula,
)

ProductTerm = list[Formula]


def compute_implicant(f: Formula, m: Model, rng: random.Random) -> ProductTerm:
    """Return literals of `f`, all satisfied by `m`, whose conjunction
    implies `f`.  Raises NotAModel if `m` does not satisfy `f`."""
    if not eval_formula(f, m):
        raise NotAModel("model does not satisfy the formula")
    out: ProductTerm = []
    seen: set[Formula] = set()
    _collect(f, m, rng, out, seen)
    return out


def _collect(f: Formula, m: Model, rng: random.Random, out: ProductTerm, seen: set) -> None:
    if isinstance(f, And):
        for child in f.args:
            _collect(child, m, rng, out, seen)
        return
    if isinstance(f, Or):
        satisfied = [child for child in f.args if eval_formula(child, m)]
        _collect(rng.choice(satisfied), m, rng, out, seen)
        return
    if isinstance(f, BoolConst):
        if not f.value:
            raise NotAModel("false literal reached; model cannot satisfy it")
        return  # contributes nothing
    if isinstance(f, (Atom, BoolVar)) or (isinstance(f, Not) and isinstance(f.arg, BoolVar)):
        if f not in seen:
            seen.add(f)
            out.append(f)
        return
    raise UnsupportedFeature(f"formula is not in NNF: {type(f).__name__}")
