"""boxsampler: many distinct models of integer SMT formulas, cheaply.

The workflow per epoch: obtain a seed model from a solver, extract an
implicant of the formula around it, shrink the implicant to interval bounds
on the leaves, then draw samples from the box.  Every point in the box is a
model of the input formula by construction; samples are still re-verified
before emission.

The entry points live in their submodules: :func:`sampler.sample_formula`
runs the sampler, :func:`smtlib.parse_problem` reads an SMT-LIB problem,
:class:`solver.ProcessSolverClient` drives an external solver, and
:class:`minisolver.LocalSolverClient` is the bundled fallback solver
in-process (``python -m boxsampler.minisolver`` serves it over a pipe).
Importing the package imports none of them.
"""

__version__ = "0.1.0"
