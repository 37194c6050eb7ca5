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
radius around the origin, one after another.  The scan keeps the best
soft-constraint score; unsat is only claimed when the finite box was fully
scanned.  Everything is deterministic.

The input is read with the one SMT-LIB reader, :func:`smtlib.read_sexpr`,
through :class:`smtlib.StreamReader`, which frames and reads each command
in one pass as soon as it is complete; the client reads the replies at the
other end of the pipe with the same class.  A stray ")" and every rejected
command get an ``(error "...")`` reply, with quotes doubled and the line
and column of the error in the input stream, and reading goes on.

One :class:`BruteForceEngine` serves a session while its declarations stay
the same, and answers a `check-sat` at the cost of what changed since the
last one.  Each assertion is analysed once, when a query first holds it.
The negation of a box over Ints, in the shape
:func:`intervals.neg_to_formula` prints, joins a :class:`solver.HardList`
as its box, and its bounds join the constants of an array query's
enumeration; nothing is compiled for it.  Any other assertion is compiled
by :func:`compiled.compile_predicate` over the declared symbols, which
takes a point's values positionally; the arrays, select-like terms and
constants it gives an array query's enumeration are noted; and its
single-variable bounds are folded into the unit bounds.  A point is a model
when it satisfies the conjunction of the compiled assertions and then lies
outside every box.  A blocking query, which only adds assertions, resumes
the last scan of the box at the model that scan found.  For a query over
arrays or functions, the candidate function values of each point are
enumerated after its Booleans, in the same loop.

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
    Rel,
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
_CLOCK_EVERY = 4096  # points (or checks) scanned between two reads of the clock

_MIRRORED = {Rel.LT: Rel.GT, Rel.LE: Rel.GE, Rel.GT: Rel.LT, Rel.GE: Rel.LE}


def _unit_atom(f: Formula) -> tuple[str, Rel, int] | None:
    """`(x, rel, c)` when `f` reads `x rel c` for an Int variable `x` and a
    constant `c`, either way round; None otherwise."""
    if not isinstance(f, Atom):
        return None
    if isinstance(f.lhs, IntVar) and isinstance(f.rhs, IntConst):
        return f.lhs.name, f.rel, f.rhs.value
    if isinstance(f.lhs, IntConst) and isinstance(f.rhs, IntVar):
        return f.rhs.name, _MIRRORED.get(f.rel, f.rel), f.lhs.value
    return None


def _tighten(bounds: dict[str, tuple[int | None, int | None]], f: Formula) -> None:
    """Tighten `bounds` by the top-level single-variable atoms of `f`: the
    unit bounds, for pruning and for sound unsat claims on finite boxes."""
    if isinstance(f, And):
        for a in f.args:
            _tighten(bounds, a)
        return
    unit = _unit_atom(f)
    if unit is None:
        return
    var, rel, c = unit
    if rel == Rel.NE:
        return
    lo = {Rel.GE: c, Rel.GT: c + 1, Rel.EQ: c}.get(rel)
    hi = {Rel.LE: c, Rel.LT: c - 1, Rel.EQ: c}.get(rel)
    cur_lo, cur_hi = bounds.get(var, (None, None))
    if lo is not None:
        cur_lo = lo if cur_lo is None else max(cur_lo, lo)
    if hi is not None:
        cur_hi = hi if cur_hi is None else min(cur_hi, hi)
    bounds[var] = (cur_lo, cur_hi)


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
        unit = _unit_atom(f)
        if unit is None or unit[1] != Rel.EQ or unit[0] not in names:
            return None
        targets.setdefault(unit[0], unit[2])
    return targets


def _refuted(f: Formula, bounds) -> bool:
    """Whether `f` is `x = c` for a constant `c` outside `x`'s unit
    bounds, so that no point of a scan satisfies it."""
    unit = _unit_atom(f)
    if unit is None or unit[1] != Rel.EQ:
        return False
    lo, hi = bounds.get(unit[0], (None, None))
    return (lo is not None and unit[2] < lo) or (hi is not None and unit[2] > hi)


def _lex_points(ranges: list[range], start: tuple | None = None):
    """The points of ``itertools.product(*ranges)`` in its order, from the
    point `start` on (`start` included), or all of them."""
    if start is None:
        return itertools.product(*ranges)
    fixed = [(x,) for x in start]
    # after `start`: its last coordinate grows first, then the one before it, ...
    later = (
        itertools.product(*fixed[:k], range(start[k] + 1, ranges[k].stop), *ranges[k + 1:])
        for k in reversed(range(len(ranges)))
    )
    return itertools.chain((tuple(start),), itertools.chain.from_iterable(later))


def _conjunction(preds: list):
    """`pred(*values)`: whether every predicate of `preds` holds, tried in
    order until one fails.  The first is called directly, so a point that
    fails it, as most points of a scan do, costs one call more than it."""
    if len(preds) <= 1:
        return preds[0] if preds else (lambda *values: True)
    first, rest = preds[0], preds[1:]
    return lambda *values: first(*values) and all(p(*values) for p in rest)


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


def _clip(lo: int, hi: int, bound) -> tuple[int, int]:
    """[lo, hi] cut to `bound`, a (lo, hi) pair of unit bounds, either None."""
    bound_lo, bound_hi = bound
    return (lo if bound_lo is None else max(lo, bound_lo), hi if bound_hi is None else min(hi, bound_hi))


def _shell_points(center: list[int], clip, distance: int):
    """Points of the clipped box at max-norm distance exactly `distance`
    from `center`, each yielded once, in a fixed order: the faces on which
    coordinate i is first at that distance, by i and then side, each in
    lexicographic order."""
    faces = [(i, side) for i in range(len(center)) for side in (-distance, distance)] if distance else [(0, 0)]
    for i, side in faces:
        axes = []
        for j, (c, bound) in enumerate(zip(center, clip)):
            r = distance - 1 if j < i else distance
            lo, hi = _clip(c + side, c + side, bound) if j == i else _clip(c - r, c + r, bound)
            axes.append(range(lo, hi + 1))
        yield from itertools.product(*axes)


class BruteForceEngine:
    """Deterministic bounded search for models of the supported fragment,
    for one list of declarations.

    A query runs one scan (`_scan`) over one order of points: the
    unit-bound box (`_box`), the shells around the soft targets (`_shells`)
    or the radius boxes (`_radius_boxes`).  The scan checks points with one
    predicate over the declared symbols, ints, then bools, then arrays and
    functions; after a point's ints come the values of its *tail*, the
    bools and then one :class:`FuncValue` per array or function symbol.

    The engine is incremental.  It keeps the hard formulas of its queries
    in a :class:`solver.HardList` (`hard`), which holds each box negation
    as its box, with what it found out about each other formula, once: the
    compiled predicate, the arrays, accesses and constants it gives an
    array query (`reads`), and its part of the unit bounds (`bounds`).  A
    point passes the compiled predicates and then the boxes.  A query whose
    hard list extends `hard` (compared as :func:`solver._extends` does)
    adds only its new formulas; any other hard list starts over.  A scan of
    the box with no soft constraints and no arrays remembers the model it
    found (`resume`).  The next such scan over the same unit bounds starts
    at that model's point, since every point before it fails formulas that
    the extended list still holds; so each answer equals that of a fresh
    engine.

    A query past its deadline answers error: the scans read the clock every
    ``_CLOCK_EVERY`` points."""

    def __init__(self, declarations: list[Declaration]):
        self.declarations = declarations
        self.int_vars = sorted(d.name for d in declarations if d.sort == Sort.INT)
        self.bool_vars = sorted(d.name for d in declarations if d.sort == Sort.BOOL)
        self.func_syms = sorted(d.name for d in declarations if d.sort == Sort.ARRAY)
        self.names = self.int_vars + self.bool_vars + self.func_syms
        self.bool_space = list(itertools.product((False, True), repeat=len(self.bool_vars)))
        zeros = (ZERO[Sort.ARRAY],) * len(self.func_syms)
        # the tails of a point when no formula reads an array or function
        self.int_tails = [bools + zeros for bools in self.bool_space]
        self._start_over()

    def _start_over(self) -> None:
        self.hard = HardList(self.declarations)
        self.preds: list = []  # the compiled predicate of each of `hard.others`
        self.pred = _conjunction(self.preds)
        # the array and function symbols `hard.others` read, their accesses, and
        # their constants, in one set with those of the box negations
        self.reads: tuple[set[str], set[tuple[str, Term]], set[int]] = (set(), set(), self.hard.bounds)
        self.bounds: dict[str, tuple[int | None, int | None]] = {}
        self.resume: tuple[dict, tuple] | None = None  # (bounds, point) of the last plain box-scan model

    def _assert(self, hard: list[Formula]) -> None:
        """Make `hard` the engine's hard list, analysing its new formulas."""
        if not _extends(hard, self.hard.hard):
            self._start_over()
        if len(hard) == len(self.hard.hard):
            return
        try:
            others = self.hard.extend(hard)
            self.preds += [compile_predicate([f], self.names) for f in others]
        except BaseException:  # no formula stays held without its analysis
            self._start_over()
            raise
        _note_reads(others, *self.reads)
        for f in others:
            _tighten(self.bounds, f)
        self.pred = _conjunction(self.preds)

    def check(
        self, hard: list[Formula], soft: list[tuple[Formula, int]] | None = None, deadline: float | None = None
    ) -> SolverVerdict:
        """The verdict on `hard`, with the best model for the weights of
        `soft`; unknown when the search runs out of points or checks, error
        when it runs past `deadline` (on the `time.monotonic` clock)."""
        self._assert(hard)
        soft = soft or []
        if any(lo is not None and hi is not None and lo > hi for lo, hi in self.bounds.values()):
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
        box = self._box()
        targets = None if box is not None or tails is not None else _soft_targets(soft, self.int_vars)
        if targets is not None:
            soft = []
        else:  # a soft equality outside the unit bounds adds to no score
            soft = [(f, w) for f, w in soft if not _refuted(f, self.bounds)]
        plain = box is not None and not soft and tails is None
        if box is None:
            points = self._radius_boxes() if targets is None else self._shells(targets)
        else:
            resumed = plain and self.resume is not None and self.resume[0] == self.bounds
            points = _lex_points(box, self.resume[1] if resumed else None)
        model = self._scan(points, soft, tails)
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
            pairs = [_clip(-radius, radius, bound) for bound in pairs]
        if any(lo is None or hi is None for lo, hi in pairs):
            return None
        size = 2 ** len(self.bool_vars) * math.prod(max(hi - lo + 1, 0) for lo, hi in pairs)
        return None if size > _MAX_POINTS_PER_SCAN else [range(lo, hi + 1) for lo, hi in pairs]

    def _radius_boxes(self):
        """The points of each box of ``_RADIUS_SCHEDULE`` in turn, each in
        lexicographic order, up to the first box too large to scan; an empty
        box holds none.  A point is met again in every larger box, so a scan
        with a running best answers as one scan per box would."""
        for radius in _RADIUS_SCHEDULE:
            ranges = self._box(radius)
            if ranges is None:
                return
            yield from itertools.product(*ranges)

    def _shells(self, targets: dict[str, int]):
        """The points of the unit-bound box by max-norm distance from
        `targets`, nearest shell first, up to ``_MAX_SHELL_DISTANCE`` and
        ``4 * _MAX_POINTS_PER_SCAN`` points."""
        center = [targets.get(v, 0) for v in self.int_vars]
        clip = [self.bounds.get(v, (None, None)) for v in self.int_vars]
        shells = (_shell_points(center, clip, d) for d in range(_MAX_SHELL_DISTANCE + 1))
        return itertools.islice(itertools.chain.from_iterable(shells), _MAX_POINTS_PER_SCAN * 4)

    # -- the scan -------------------------------------------------------------

    def _scan(self, points, soft, tails) -> Model | None:
        """The best model among `points`, scanned in order: the first of the
        highest soft score, or the first model when there are no softs;
        None when no point has one.  Stops at the first point satisfying
        every soft constraint.  Each point is checked with each of its
        tails: `tails(point)` for queries over arrays or functions,
        ``self.int_tails`` when `tails` is None.  An array or function query
        stops scanning once it has made ``_MAX_ARRAY_CHECKS`` checks.  A
        query with a deadline raises `TimeoutError` when it finds the clock
        past it."""
        best = None
        best_score = -1
        weights = [w for _, w in soft]
        soft_preds = [compile_predicate([f], self.names) for f, _ in soft]
        perfect = sum(weights)
        pred, holding = self.pred, self.hard.holding
        if tails is None:
            scan = zip(points, itertools.repeat(self.int_tails))
        else:
            scan = self._budgeted(points, tails)
        if self.deadline is not None:
            scan = _clocked(scan, self.deadline)
        for point, point_tails in scan:
            for tail in point_tails:
                if not pred(*point, *tail) or holding(point) is not None:
                    continue
                if not soft:
                    return self._model_of(point, tail)
                score = sum(w for sp, w in zip(soft_preds, weights) if sp(*point, *tail))
                if score > best_score:
                    best = self._model_of(point, tail)
                    best_score = score
                    if best_score >= perfect:
                        return best
        return best

    def _budgeted(self, points, tails):
        """One `(point, (tail,))` pair per candidate, until the query's
        checks run out."""
        for point in points:
            for tail in tails(point):
                if self.checks_left <= 0:
                    return
                self.checks_left -= 1
                yield point, (tail,)

    def _model_of(self, point, tail) -> Model:
        return Model(
            ints=dict(zip(self.int_vars, point)),
            bools=dict(zip(self.bool_vars, tail)),
            funcs=dict(zip(self.func_syms, tail[len(self.bool_vars):])),
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
    """The value of `arg`, the numeral of a push, a pop or a weight."""
    value = numeral(arg.text, arg.error)
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
    session = _Session(sys.stdout)
    for line in sys.stdin:
        for command in session.reader.feed(line):
            if isinstance(command, SmtSyntaxError):  # a stray ")"
                session.error(session.reader.locate(command))
            elif not session.handle(command):
                return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
