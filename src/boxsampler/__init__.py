"""boxsampler: many distinct models of integer SMT formulas, cheaply.

The workflow per epoch: obtain a seed model from a solver, extract an
implicant of the formula around it, shrink the implicant to interval bounds
on the leaves, then draw samples from the box.  Every point in the box is a
model of the input formula by construction; samples are still re-verified
before emission.
"""

from .errors import (
    BitmapMismatch,
    BoxsamplerError,
    DivisorZero,
    EmptyIntersection,
    ModelParseError,
    NegativeSlack,
    NoWitness,
    NotAModel,
    SmtSyntaxError,
    SolverFailure,
    SoundnessViolation,
    UnassignedSymbol,
    UnsatFormula,
    UnsupportedFeature,
)
from .intervals import Interval, IntervalMap, contains, intersect, neg_to_formula, to_formula
from .sampler import RunStats, SamplerConfig, sample_formula
from .smtlib import ParsedProblem, parse_problem, print_formula, print_term
from .solver import ProcessSolverClient, SolverClient, SolverRequest, SolverVerdict, VerdictKind
from .terms import (
    FuncValue,
    Model,
    Sort,
    eval_formula,
    eval_term,
    preprocess,
    to_nnf,
)

__version__ = "0.1.0"

__all__ = [
    "BitmapMismatch",
    "BoxsamplerError",
    "DivisorZero",
    "EmptyIntersection",
    "FuncValue",
    "Interval",
    "IntervalMap",
    "Model",
    "ModelParseError",
    "NegativeSlack",
    "NoWitness",
    "NotAModel",
    "ParsedProblem",
    "ProcessSolverClient",
    "RunStats",
    "SamplerConfig",
    "SmtSyntaxError",
    "SolverClient",
    "SolverFailure",
    "SolverRequest",
    "SolverVerdict",
    "Sort",
    "SoundnessViolation",
    "UnassignedSymbol",
    "UnsatFormula",
    "UnsupportedFeature",
    "VerdictKind",
    "contains",
    "eval_formula",
    "eval_term",
    "intersect",
    "neg_to_formula",
    "parse_problem",
    "preprocess",
    "print_formula",
    "print_term",
    "sample_formula",
    "to_formula",
    "to_nnf",
]
