"""Implicant extraction: satisfaction, implication, subset, determinism."""

import random

import pytest

from boxsampler.errors import NotAModel, UnsupportedFeature
from boxsampler.implicant import compute_implicant
from boxsampler.terms import (
    And,
    Atom,
    BoolVar,
    IntConst,
    IntVar,
    Model,
    Not,
    Or,
    Rel,
    eval_formula,
    iter_nodes,
)
from oracle import brute_force_implies, is_literal, random_nnf_formula

X, Y = IntVar("x"), IntVar("y")
A = Atom(Rel.GE, X, IntConst(0))
B = Atom(Rel.LE, Y, IntConst(5))


class TestBasics:
    def test_conjunction_keeps_all(self):
        m = Model(ints={"x": 1, "y": 1})
        assert compute_implicant(And((A, B)), m, random.Random(0)) == [A, B]

    def test_forced_disjunct(self):
        m = Model(ints={"x": 1, "y": 99})  # satisfies A only
        assert compute_implicant(Or((A, B)), m, random.Random(0)) == [A]

    def test_not_a_model_rejected(self):
        with pytest.raises(NotAModel):
            compute_implicant(A, Model(ints={"x": -1}), random.Random(0))

    def test_bool_literals_kept(self):
        f = And((BoolVar("p"), Not(BoolVar("q")), A))
        m = Model(ints={"x": 0}, bools={"p": True, "q": False})
        out = compute_implicant(f, m, random.Random(0))
        assert BoolVar("p") in out and Not(BoolVar("q")) in out

    def test_negated_atom_is_not_nnf(self):
        m = Model(ints={"x": -1, "y": 0})
        for f in (Not(A), And((B, Not(A)))):
            with pytest.raises(UnsupportedFeature, match="formula is not in NNF: Not"):
                compute_implicant(f, m, random.Random(0))

    def test_duplicates_collapsed(self):
        f = And((A, A, Or((A, B))))
        m = Model(ints={"x": 2, "y": 0})
        out = compute_implicant(f, m, random.Random(1))
        assert out.count(A) == 1


def _literals_of(f):
    out = set()
    for node in iter_nodes(f):
        if is_literal(node):
            out.add(node)
    return out


class TestProperties:
    NAMES = ["x", "y", "z"]

    def _cases(self, count, seed):
        rng = random.Random(seed)
        produced = 0
        while produced < count:
            f = random_nnf_formula(rng, self.NAMES, 3)
            m = Model(ints={n: rng.randint(-5, 5) for n in self.NAMES})
            if eval_formula(f, m):
                produced += 1
                yield f, m, rng

    def test_every_literal_satisfied_by_model(self):
        for f, m, rng in self._cases(150, seed=101):
            for lit in compute_implicant(f, m, rng):
                assert eval_formula(lit, m)

    def test_conjunction_implies_formula_exhaustively(self):
        for f, m, rng in self._cases(80, seed=303):
            literals = compute_implicant(f, m, rng)
            assert brute_force_implies(literals, f, self.NAMES, -5, 5)

    def test_result_is_subset_of_formula_literals(self):
        for f, m, rng in self._cases(150, seed=505):
            available = _literals_of(f)
            for lit in compute_implicant(f, m, rng):
                assert lit in available

    def test_deterministic_under_fixed_seed(self):
        for f, m, _ in self._cases(60, seed=707):
            first = compute_implicant(f, m, random.Random(42))
            second = compute_implicant(f, m, random.Random(42))
            assert first == second

    def test_random_tie_break_uses_rng(self):
        # two satisfied disjuncts: over many seeds both get chosen
        f = Or((A, B))
        m = Model(ints={"x": 0, "y": 0})
        picks = {tuple(compute_implicant(f, m, random.Random(s))) for s in range(32)}
        assert picks == {(A,), (B,)}
