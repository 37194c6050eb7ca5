"""Desk-scale fallback solver: bounded enumeration behind an SMT-LIB pipe.

`python -m boxsampler.minisolver` speaks enough SMT-LIB v2 on standard
input/output to serve as the `--solver-cmd` backend for toy problems when no
real solver is installed.  The session answers the commands that scope or
reply: push/pop (which scope declarations and assertions alike), reset,
exit, assert-soft, check-sat, get-model, and get-value with an error.
:meth:`smtlib.Parser.command` reads every other one (declare-const,
declare-fun, define-fun, assert, set-logic, set-info, set-option, an
unknown head, an atom) and keeps the hard list, so the pipe accepts and
rejects each as :func:`smtlib.parse_problem` does.

Each `check-sat` runs one scan, over one of three orders of integer
points: the box of the single-variable bounds when it is finite and small,
in lexicographic order; else the max-norm shells around the soft targets,
when every soft constraint pins an Int to a constant; else boxes of growing
radius around the origin, one after another.  Every order yields only
points inside the unit bounds, so the atoms that make those bounds are not
tested again: a point meets them by construction.  The scan is one chain
of ``filter`` calls over the candidate value tuples, so its loop runs in C.
It keeps the best soft-constraint score; unsat is only claimed when the
finite box was fully scanned.  Everything is deterministic.

The input is read with the one SMT-LIB reader of :mod:`smtlib`, through
:class:`smtlib.StreamReader`, which reads every command complete in what
has arrived in one pass; the client reads the replies at the other end of
the pipe with the same class.  Both ends speak UTF-8 whatever the locale,
and each reads undecodable bytes as U+FFFD.  A stray ")" and every rejected
command get an ``(error "...")`` reply, with quotes doubled and the line
and column of the error in the input stream, and reading goes on.

One :class:`BruteForceEngine` serves a session while its declarations stay
the same, and answers a `check-sat` at the cost of what changed since the
last one.  Each assertion is analysed once, when a query first holds it.
The negation of a box over Ints, in the shape
:func:`intervals.neg_to_formula` prints, joins a :class:`solver.HardList`
as its box, and its constants join those of an array query's
enumeration; nothing is compiled for it.  Any other assertion is compiled
by :func:`compiled.compile_predicate` over the declared symbols, which
takes a candidate's values as one tuple, past its top-level atoms that
bound one Int by a constant, which are folded into the unit bounds; the
arrays, select-like terms and constants it gives an array query's
enumeration are noted.  A point is a model when it satisfies the compiled
predicates and then lies outside every box.  A blocking query, which only
adds assertions, resumes the last scan of the box at the model that scan
found.  For a query over arrays or functions, the candidate function
values of each point are enumerated after its Booleans, in the same loop.

:class:`LocalSolverClient` exposes the same engine in-process for tests and
scripts, returns its verdicts as they are, since the engine has just
checked every hard formula, and stops a query at the request's deadline.

Every start of a :class:`solver.ProcessSolverClient` running this module
waits for its imports before the first answer, so the child imports only
the modules of the pipe (`errors`, `terms`, `smtlib`, `compiled`, `solver`)
and none of them imports `dataclasses`, `inspect` or `typing`: the
dataclasses alone made the time from spawn to first answer a quarter longer.
"""

from __future__ import annotations

import itertools
import math
import sys
import time

from .compiled import compile_predicate
from .errors import SmtSyntaxError, UnsupportedFeature
from .smtlib import Declaration, Parser, StreamReader, _print_sym, numeral, print_term
from .solver import HardList, SolverClient, SolverRequest, SolverVerdict, VerdictKind, _extends
from .terms import (
    And,
    ArrayVar,
    Atom,
    Formula,
    FuncValue,
    IntConst,
    IntVar,
    Model,
    Sort,
    Term,
    ZERO,
    eval_term,
    is_select_like,
    iter_nodes,
)

_RADIUS_SCHEDULE = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 150)
_MAX_POINTS_PER_SCAN = 400_000
_MAX_SHELL_DISTANCE = 500
_MAX_ARRAY_SLOTS = 4
_MAX_ARRAY_CANDIDATES = 9
_MAX_ARRAY_CHECKS = 400_000  # (point, tail) checks per query over arrays or functions
_CLOCK_EVERY = 4096  # candidates scanned between two reads of the clock

# By a relation's symbol, its value, as a `Rel` hashes in Python: the
# relation of `c op x` read as `x op' c`, and the range that `x op c` allows
# `x`, as offsets from `c`, None for an open side.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_RANGES = {"<": (None, -1), "<=": (None, 0), ">": (1, None), ">=": (0, None), "=": (0, 0)}


def _unit_bound(f: Formula) -> tuple[str, int | None, int | None] | None:
    """`(x, lo, hi)` when `f` reads `x op c` or `c op x` for an Int
    variable `x`, a constant `c` and `op` one of ``< <= > >= =``: the range
    [lo, hi] that `f` allows `x`, None for an open side.  None for ``!=``
    and for any other formula."""
    if not isinstance(f, Atom) or f.rel._value_ not in _RANGES:  # not an atom, or a `!=`
        return None
    op = f.rel._value_
    if isinstance(f.lhs, IntVar) and isinstance(f.rhs, IntConst):
        x, c = f.lhs.name, f.rhs.value
    elif isinstance(f.lhs, IntConst) and isinstance(f.rhs, IntVar):
        x, c, op = f.rhs.name, f.lhs.value, _MIRRORED.get(op, op)
    else:
        return None
    return (x, *(None if offset is None else c + offset for offset in _RANGES[op]))


def _meet(a: tuple, b: tuple) -> tuple[int | None, int | None]:
    """The intersection of the ranges `a` and `b`, (lo, hi) pairs in which
    None is an open side."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    lo = a_lo if b_lo is None else b_lo if a_lo is None else max(a_lo, b_lo)
    hi = a_hi if b_hi is None else b_hi if a_hi is None else min(a_hi, b_hi)
    return lo, hi


def _tighten(bounds: dict[str, tuple[int | None, int | None]], f: Formula, ints) -> list[Formula]:
    """Tighten `bounds` by the top-level single-variable atoms of `f`: the
    unit bounds, for pruning and for sound unsat claims on finite boxes.
    Returns the top-level conjuncts of `f` that a point inside the bounds
    must still be tested on: all but the atoms that bound an Int of `ints`
    (a `!=` atom bounds nothing; an undeclared symbol fails to compile)."""
    if isinstance(f, And):
        return [g for a in f.args for g in _tighten(bounds, a, ints)]
    unit = _unit_bound(f)
    if unit is None:
        return [f]
    bounds[unit[0]] = _meet(bounds.get(unit[0], (None, None)), unit[1:])
    return [] if unit[0] in ints else [f]


def _note_reads(formulas, used: set[str], accesses: set[tuple[str, Term]], constants: set[int]) -> None:
    """Add what `formulas` give an array query's tails: to `used` the array
    and function symbols they read, to `accesses` the (symbol, index) of
    their select-like terms, and to `constants` their integer constants."""
    for f in formulas:
        for node in iter_nodes(f):
            if isinstance(node, ArrayVar):
                used.add(node.name)
            elif isinstance(node, IntConst):
                constants.add(node.value)
            elif is_select_like(node):
                accesses.add((node.array.name, node.index))


def _soft_targets(soft, int_vars) -> dict[str, int] | None:
    """Target point when every soft constraint pins a variable to a constant
    (the shape produced by randomized seeding); None otherwise."""
    if not soft:
        return None
    targets: dict[str, int] = {}
    names = set(int_vars)
    for f, _weight in soft:
        unit = _unit_bound(f)
        if unit is None or unit[1] != unit[2] or unit[0] not in names:  # not `x = c`
            return None
        targets.setdefault(unit[0], unit[1])
    return targets


def _refuted(f: Formula, bounds) -> bool:
    """Whether `f` is `x = c` for a constant `c` outside `x`'s unit
    bounds, so that no point of a scan satisfies it."""
    unit = _unit_bound(f)
    if unit is None or unit[1] != unit[2]:
        return False
    lo, hi = _meet(bounds.get(unit[0], (None, None)), unit[1:])
    return lo > hi


def _lex_points(ranges: list[range], tail: list, start: tuple | None = None):
    """The points of ``itertools.product(*ranges)`` in its order, from the
    point `start` on (`start` included), or all of them; each point is
    followed by each value of the `tail` axes, ``product(*tail)``."""
    if start is None:
        return itertools.product(*ranges, *tail)
    fixed = [(x,) for x in start]
    # after `start`: its last coordinate grows first, then the one before it, ...
    later = (
        itertools.product(*fixed[:k], range(start[k] + 1, ranges[k].stop), *ranges[k + 1:], *tail)
        for k in reversed(range(len(ranges)))
    )
    return itertools.chain(itertools.product(*fixed, *tail), itertools.chain.from_iterable(later))


def _clocked(items, deadline: float):
    """`items` in order, with the clock read before each run of
    ``_CLOCK_EVERY`` of them; raises `TimeoutError` once it is past
    `deadline`."""
    it = iter(items)

    def runs():
        for first in it:
            if time.monotonic() > deadline:
                raise TimeoutError("search passed the deadline")
            yield itertools.chain((first,), itertools.islice(it, _CLOCK_EVERY - 1))

    return itertools.chain.from_iterable(runs())


def _shell_faces(center: list[int], clip, distance: int, tail: list):
    """The points of the clipped box at max-norm distance exactly
    `distance` from `center`, each once, as one ``product`` per face, each
    point followed by the values of the `tail` axes: the faces on which
    coordinate i is first at that distance, by i and then side, each in
    lexicographic order."""
    faces = [(i, side) for i in range(len(center)) for side in (-distance, distance)] if distance else [(0, 0)]
    for i, side in faces:
        axes = []
        for j, (c, bound) in enumerate(zip(center, clip)):
            r = distance - 1 if j < i else distance
            lo, hi = _meet((c + side, c + side) if j == i else (c - r, c + r), bound)
            axes.append(range(lo, hi + 1))
        yield itertools.product(*axes, *tail)


class BruteForceEngine:
    """Deterministic bounded search for models of the supported fragment,
    for one list of declarations.

    A query runs one scan (`_scan`) over one order of points: the
    unit-bound box (`_box`), the shells around the soft targets (`_shells`)
    or the radius boxes (`_radius_boxes`).  The scan checks candidates,
    value tuples over the declared symbols, ints, then bools, then arrays
    and functions: after a point's ints come the values of its *tail*, the
    bools and then one :class:`FuncValue` per array or function symbol.
    With no array or function read, a point order yields the candidates
    itself, from ``itertools.product`` over the `tail` axes too.

    The engine is incremental.  It keeps the hard formulas of its queries
    in a :class:`solver.HardList` (`hard`), which holds each box negation
    as its box, with what it found out about each other formula, once: the
    arrays, accesses and constants it gives an array query (`reads`), its
    part of the unit bounds (`bounds`), and the predicate of the rest
    (`preds`), which takes a candidate as one tuple.  Every point order
    yields only points inside the unit bounds, so each point meets the
    atoms that make them and gets the verdict of the whole formula.  The
    scan is a ``filter`` per predicate, in the order the formulas came, and
    then a test against the boxes, so its loop over the points runs in C.

    A query whose hard list extends `hard` (compared as
    :func:`solver._extends` does) adds only its new formulas; any other
    hard list starts over.  A scan of the box with no soft constraints and
    no arrays remembers the model it found (`resume`).  The next such scan
    over the same unit bounds starts at that model's point, since every
    point before it fails formulas that the extended list still holds; so
    each answer equals that of a fresh engine.

    A query past its deadline answers error: the scans read the clock every
    ``_CLOCK_EVERY`` candidates."""

    def __init__(self, declarations: list[Declaration]):
        self.declarations = declarations
        self.int_vars = sorted(d.name for d in declarations if d.sort == Sort.INT)
        self.bool_vars = sorted(d.name for d in declarations if d.sort == Sort.BOOL)
        self.func_syms = sorted(d.name for d in declarations if d.sort == Sort.ARRAY)
        self.names = self.int_vars + self.bool_vars + self.func_syms
        self.bool_space = list(itertools.product((False, True), repeat=len(self.bool_vars)))
        # the axes of a point's tail when no formula reads an array or function
        self.tail = [(False, True)] * len(self.bool_vars) + [(ZERO[Sort.ARRAY],)] * len(self.func_syms)
        self._start_over()

    def _start_over(self) -> None:
        self.hard = HardList(self.declarations)
        self.preds: list = []  # the compiled predicates of what `hard.others` leave past the unit bounds
        # the array and function symbols `hard.others` read, their accesses, and
        # their constants, in one set with those of the box negations
        self.reads: tuple[set[str], set[tuple[str, Term]], set[int]] = (set(), set(), self.hard.constants)
        self.bounds: dict[str, tuple[int | None, int | None]] = {}
        self._bounded()
        self.resume: tuple[dict, tuple] | None = None  # (bounds, point) of the last plain box-scan model

    def _bounded(self) -> None:
        """Note the ranges of the unit-bound box (`box`) and whether a bound
        is empty (`empty`), which hold until the unit bounds change."""
        self.box = self._box()
        self.empty = any(lo is not None and hi is not None and lo > hi for lo, hi in self.bounds.values())

    def _assert(self, hard: list[Formula]) -> None:
        """Make `hard` the engine's hard list, analysing its new formulas."""
        if not _extends(hard, self.hard.hard):
            self._start_over()
        if len(hard) == len(self.hard.hard):
            return
        try:
            others = self.hard.extend(hard)
            ints = set(self.int_vars)
            for f in others:
                rest = _tighten(self.bounds, f, ints)
                if rest:
                    self.preds.append(compile_predicate(rest, self.names, packed=True))
        except BaseException:  # no formula stays held without its analysis
            self._start_over()
            raise
        _note_reads(others, *self.reads)
        if others:
            self._bounded()

    def check(
        self, hard: list[Formula], soft: list[tuple[Formula, int]] | None = None, deadline: float | None = None
    ) -> SolverVerdict:
        """The verdict on `hard`, with the best model for the weights of
        `soft`; unknown when the search runs out of points or checks, error
        when it runs past `deadline` (on the `time.monotonic` clock)."""
        self._assert(hard)
        soft = soft or []
        if self.empty:
            return SolverVerdict(VerdictKind.UNSAT)
        self.checks_left = _MAX_ARRAY_CHECKS
        self.deadline = deadline
        try:
            return self._search(soft)
        except TimeoutError as exc:
            return SolverVerdict(VerdictKind.ERROR, reason=str(exc))

    def _search(self, soft) -> SolverVerdict:
        """Scan one order of points for the best model.  The order is the
        box of the unit bounds when it is finite and small, from `resume`'s
        point on for a plain query (no softs, no tails); else the shells
        around the soft targets when every soft pins an Int to a constant
        (scanned for the first model, as with no softs); else the radius
        boxes.  Only a box scanned whole without tails proves unsat."""
        reads = self.reads
        if soft:
            reads = tuple(set(r) for r in reads)
            _note_reads([f for f, _ in soft], *reads)
        tails = self._array_tails(*reads) if reads[0] else None
        box = self.box
        targets = None if box is not None or tails is not None else _soft_targets(soft, self.int_vars)
        if targets is not None:
            soft = []
        else:  # a soft equality outside the unit bounds adds to no score
            soft = [(f, w) for f, w in soft if not _refuted(f, self.bounds)]
        plain = box is not None and not soft and tails is None
        tail = self.tail if tails is None else []  # the tails of an array query come from `tails`
        if box is None:
            candidates = self._radius_boxes(tail) if targets is None else self._shells(targets, tail)
        else:
            resumed = plain and self.resume is not None and self.resume[0] == self.bounds
            candidates = _lex_points(box, tail, self.resume[1] if resumed else None)
        if tails is not None:
            candidates = self._with_tails(candidates, tails)
        model = self._scan(candidates, soft)
        if model is None and box is not None and tails is None:
            return SolverVerdict(VerdictKind.UNSAT)
        if model is None:
            return SolverVerdict(VerdictKind.UNKNOWN, reason="search budget exhausted")
        if plain:
            self.resume = (dict(self.bounds), tuple(model.ints[v] for v in self.int_vars))
        return SolverVerdict(VerdictKind.SAT, model)

    # -- the three point orders ---------------------------------------------

    def _box(self, radius: int | None = None) -> list[range] | None:
        """The ranges of the unit-bound box, each clipped to [-radius, radius]
        when `radius` is given; None when a range is unbounded or the box,
        with its Bools, holds more than ``_MAX_POINTS_PER_SCAN`` points.  A
        range is sized as ``hi - lo + 1``, since ``len`` raises on one wider
        than ``sys.maxsize``."""
        pairs = [self.bounds.get(v, (None, None)) for v in self.int_vars]
        if radius is not None:
            pairs = [_meet((-radius, radius), bound) for bound in pairs]
        if any(lo is None or hi is None for lo, hi in pairs):
            return None
        size = 2 ** len(self.bool_vars) * math.prod(max(hi - lo + 1, 0) for lo, hi in pairs)
        return None if size > _MAX_POINTS_PER_SCAN else [range(lo, hi + 1) for lo, hi in pairs]

    def _radius_boxes(self, tail: list):
        """The points of each box of ``_RADIUS_SCHEDULE`` in turn, each in
        lexicographic order and followed by the values of the `tail` axes,
        up to the first box too large to scan; an empty box holds none.  A
        point is met again in every larger box, so a scan with a running
        best answers as one scan per box would."""
        boxes = itertools.takewhile(lambda ranges: ranges is not None, map(self._box, _RADIUS_SCHEDULE))
        return itertools.chain.from_iterable(itertools.product(*ranges, *tail) for ranges in boxes)

    def _shells(self, targets: dict[str, int], tail: list):
        """The points of the unit-bound box by max-norm distance from
        `targets`, nearest shell first, each followed by the values of the
        `tail` axes, up to ``_MAX_SHELL_DISTANCE`` and ``4 *
        _MAX_POINTS_PER_SCAN`` points."""
        center = [targets.get(v, 0) for v in self.int_vars]
        clip = [self.bounds.get(v, (None, None)) for v in self.int_vars]
        faces = (face for d in range(_MAX_SHELL_DISTANCE + 1) for face in _shell_faces(center, clip, d, tail))
        per_point = math.prod(map(len, tail))  # the candidates of a point, which come one after another
        return itertools.islice(itertools.chain.from_iterable(faces), _MAX_POINTS_PER_SCAN * 4 * per_point)

    # -- the scan -------------------------------------------------------------

    def _scan(self, candidates, soft) -> Model | None:
        """The best model among `candidates`, scanned in order: the first of
        the highest soft score, or the first model when there are no softs;
        None when no candidate is one.  Stops at the first candidate
        satisfying every soft constraint.  A query with a deadline raises
        `TimeoutError` when it finds the clock past it."""
        if self.deadline is not None:
            candidates = _clocked(candidates, self.deadline)
        for pred in self.preds:
            candidates = filter(pred, candidates)
        models = itertools.filterfalse(self.hard.holding, candidates)  # `holding` is None or a formula
        if not soft:
            values = next(models, None)
            return None if values is None else self._model_of(values)
        best = None
        best_score = -1
        weights = [w for _, w in soft]
        soft_preds = [compile_predicate([f], self.names, packed=True) for f, _ in soft]
        perfect = sum(weights)
        for values in models:
            score = sum(w for sp, w in zip(soft_preds, weights) if sp(values))
            if score > best_score:
                best = self._model_of(values)
                best_score = score
                if best_score >= perfect:
                    return best
        return best

    def _with_tails(self, points, tails):
        """Each of `points` followed by each of its tails, ``point + tail``,
        until the query's checks run out."""
        for point in points:
            for tail in tails(point):
                if self.checks_left <= 0:
                    return
                self.checks_left -= 1
                yield point + tail

    def _model_of(self, values) -> Model:
        ints, bools = len(self.int_vars), len(self.int_vars) + len(self.bool_vars)
        return Model(
            ints=dict(zip(self.int_vars, values)),
            bools=dict(zip(self.bool_vars, values[ints:])),
            funcs=dict(zip(self.func_syms, values[bools:])),
        )

    def _array_tails(self, used, accesses, constants):
        """`tails(point)`: the tails of a point for formulas over arrays or
        functions, in scan order: for each assignment of the bools, every
        assignment of the symbols `used`, which the formulas read.

        Slots are the index values that the select-like terms `accesses`
        reach when every symbol is the constant-0 function; each slot and
        each default ranges over the `constants` of the problem.  A symbol
        the formulas do not read is the constant-0 function.  A point and
        bools with more than ``_MAX_ARRAY_SLOTS`` slots get no candidates."""
        syms = [s for s in self.func_syms if s in used]
        column = {s: k for k, s in enumerate(syms)}
        positions = [column.get(s) for s in self.func_syms]  # of each symbol in `syms`, or None
        accesses = {(s, index) for s, index in accesses if s in column}
        probe_funcs = dict.fromkeys(syms, ZERO[Sort.ARRAY])
        candidates = sorted(constants | {-1, 0, 1})[:_MAX_ARRAY_CANDIDATES]

        def tails(point):
            ints = dict(zip(self.int_vars, point))
            for bools in self.bool_space:
                probe = Model(ints=ints, bools=dict(zip(self.bool_vars, bools)), funcs=probe_funcs)
                slots: dict[str, set[int]] = {s: set() for s in syms}
                for s, index in accesses:
                    slots[s].add(eval_term(index, probe))
                slot_list = [(s, index) for s in syms for index in sorted(slots[s])]
                if len(slot_list) > _MAX_ARRAY_SLOTS:
                    continue
                for combo in itertools.product(candidates, repeat=len(syms) + len(slot_list)):
                    stored: dict[str, dict[int, int]] = {s: {} for s in syms}
                    for (s, index), value in zip(slot_list, combo[len(syms):]):
                        stored[s][index] = value
                    values = [FuncValue(d, stored[s]) for s, d in zip(syms, combo)]
                    yield bools + tuple(ZERO[Sort.ARRAY] if k is None else values[k] for k in positions)

        return tails


def _engine_for(engine: BruteForceEngine | None, declarations: list[Declaration]) -> BruteForceEngine:
    """`engine` while it serves `declarations`, else a new engine for them."""
    if engine is not None and engine.declarations == declarations:
        return engine
    return BruteForceEngine(declarations)


class LocalSolverClient(SolverClient):
    """In-process client backed by the brute-force engine.  It keeps one
    engine while the requests' declarations stay the same, so a blocking
    request pays only for its new formulas.  Its verdicts are the
    engine's, with no re-check: the engine's scan has just checked every
    hard formula at the model it answers.  A request whose deadline passes
    during the search is answered error, as the process client answers a
    timeout."""

    def __init__(self):
        self.engine: BruteForceEngine | None = None

    def _check(self, req: SolverRequest) -> SolverVerdict:
        self.engine = _engine_for(self.engine, list(req.declarations))
        return self.engine.check(list(req.hard), req.soft, req.deadline)

    def solve(self, req: SolverRequest) -> SolverVerdict:
        assert not req.soft
        return self._check(req)

    def max_solve(self, req: SolverRequest) -> SolverVerdict:
        return self._check(req)


# ---------------------------------------------------------------------------
# SMT-LIB pipe loop


class _Session:
    def __init__(self, out):
        self.out = out
        self.reader = StreamReader()
        self._start()

    def _start(self):
        """The state of a new session, or of one after `reset`."""
        self.parser = Parser()
        self.hard = self.parser.assertions  # the parser reads every `assert`
        self.soft: list[tuple[Formula, int]] = []
        self.marks: list[tuple] = []  # of each push, (its levels, len(hard), len(soft), decls, macros) to pop to
        self.last_model: Model | None = None
        self.engine: BruteForceEngine | None = None  # kept while the declarations stay the same

    def emit(self, text: str):
        self.out.write(text + "\n")
        self.out.flush()

    def error(self, message: str):
        """Reply `(error "message")`, with each quote of `message` doubled
        as SMT-LIB escapes it, so that the reply reads as one s-expression."""
        self.emit('(error "' + message.replace('"', '""') + '")')

    def handle(self, sexpr) -> bool:
        """Process one command; returns False on exit.  The session answers
        the commands that scope or reply; the parser reads every other one,
        as it reads a problem file."""
        head = sexpr.items[0].text if sexpr.items and sexpr.items[0].is_atom else None  # None: not a command
        args = sexpr.items[1:] if head else []
        try:
            if head == "exit":
                return False
            if head == "reset":
                self._start()
            elif head == "push":  # one mark stands for all the levels of one push
                levels = _count(args[0]) if args else 1
                if levels:
                    decls, macros = dict(self.parser.decls), dict(self.parser.macros)
                    self.marks.append((levels, len(self.hard), len(self.soft), decls, macros))
            elif head == "pop":  # to the mark of the last push it closes, or leaves open in part
                depth = _count(args[0]) if args else 1
                while depth > 0 and self.marks:
                    levels, hard, soft, decls, macros = self.marks.pop()
                    if levels > depth:
                        self.marks.append((levels - depth, hard, soft, decls, macros))
                    depth -= levels
                    self.parser.decls, self.parser.macros = dict(decls), dict(macros)
                    del self.hard[hard:], self.soft[soft:]
            elif head == "assert-soft":
                if not args:
                    raise sexpr.error("assert-soft expects one formula")
                f = self.parser.formula(sexpr, args[0])
                weight = 1
                for key, value in zip(args[1:], args[2:]):  # the attributes
                    if key.is_atom and key.text == ":weight":
                        weight = _count(value)
                self.soft.append((f, weight))
            elif head == "check-sat":
                self.engine = _engine_for(self.engine, list(self.parser.decls.values()))
                verdict = self.engine.check(self.hard, self.soft)
                self.last_model = verdict.model
                self.emit(verdict.kind.value)
            elif head == "get-model" and self.last_model is not None:
                self.emit(_format_model(self.last_model, list(self.parser.decls.values())))
            elif head == "get-model":
                self.error("no model available")
            elif head == "get-value":  # the parser passes it over, but the client waits for a reply
                self.error("unsupported command get-value")
            else:
                self.parser.command(sexpr)
        except (SmtSyntaxError, UnsupportedFeature) as exc:
            self.error(self.reader.locate(exc))
        except (ValueError, IndexError) as exc:
            self.error(str(exc))
        return True


def _count(arg) -> int:
    """The value of `arg`, the unsigned numeral of a push, a pop or a weight."""
    value = None if arg.text.startswith("-") else numeral(arg.text, arg.error)
    if value is None:
        raise arg.error("expected a numeral")
    return value


def _format_model(model: Model, declarations: list[Declaration]) -> str:
    def num(v: int) -> str:
        return print_term(IntConst(v))

    lines = ["("]
    for d in declarations:
        name, value = _print_sym(d.name), model.of(d.sort).get(d.name, ZERO[d.sort])
        if d.is_function:
            body = num(value.default)
            for k in sorted(value.exceptions, reverse=True):
                body = f"(ite (= x!0 {num(k)}) {num(value.exceptions[k])} {body})"
            lines.append(f"  (define-fun {name} ((x!0 Int)) Int {body})")
        elif d.sort == Sort.ARRAY:
            body = f"((as const (Array Int Int)) {num(value.default)})"
            for k in sorted(value.exceptions):
                body = f"(store {body} {num(k)} {num(value.exceptions[k])})"
            lines.append(f"  (define-fun {name} () (Array Int Int) {body})")
        else:  # an Int or a Bool, whose sort's value is its SMT-LIB name
            text = num(value) if d.sort == Sort.INT else "true" if value else "false"
            lines.append(f"  (define-fun {name} () {d.sort.value} {text})")
    lines.append(")")
    return "\n".join(lines)


def main(argv=None) -> int:
    sys.stdout.reconfigure(encoding="utf-8")  # as the client reads and writes, whatever the locale
    session = _Session(sys.stdout)
    for line in sys.stdin.buffer:  # a line of UTF-8 ends at a whole character
        for command in session.reader.feed(line.decode("utf-8", "replace")):
            if isinstance(command, SmtSyntaxError):  # a stray ")"
                session.error(session.reader.locate(command))
            elif not session.handle(command):
                return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
