"""Desk-scale fallback solver: bounded enumeration behind an SMT-LIB pipe.

`python -m boxsampler.minisolver` speaks enough SMT-LIB v2 on standard
input/output to serve as the `--solver-cmd` backend for toy problems when no
real solver is installed: declare-fun/-const, assert, assert-soft, push/pop
(which scope declarations and assertions alike), check-sat, get-model,
reset, exit.  Satisfiability is decided by exhaustive
scans over growing integer boxes; unsat is only claimed when the feasible
box was provably finite and fully scanned.  MAX-Solve scans the same region
and keeps the best soft-constraint score.  Everything is deterministic.

The input is read with the one SMT-LIB reader, :func:`smtlib.read_sexpr`,
through :class:`smtlib.StreamReader`, which frames and reads each command
in one pass as soon as it is complete; the client reads the replies at the
other end of the pipe with the same class.
Assertions must be Bool, as in :func:`smtlib.parse_problem`.  A stray ")"
and every rejected command get an ``(error "...")`` reply, with quotes
doubled and the line and column of the error in the input stream, and
reading goes on.

Every scan checks points with one predicate per query,
:func:`compiled.compile_predicate` over the declared symbols, which takes a
point's values positionally.  For a query over arrays or functions, the
candidate function values of each point are enumerated after its Booleans,
in the same loop.

:class:`LocalSolverClient` exposes the same engine in-process for tests and
scripts.
"""

from __future__ import annotations

import itertools
import sys

from .compiled import compile_predicate
from .errors import SmtSyntaxError, UnsupportedFeature
from .smtlib import Declaration, Parser, StreamReader, _print_sym, print_term
from .solver import SolverClient, SolverRequest, SolverVerdict, VerdictKind, _recheck
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
    eval_term,
    is_select_like,
    iter_nodes,
    iter_subterms,
)

_RADIUS_SCHEDULE = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 150)
_MAX_POINTS_PER_SCAN = 400_000
_MAX_SHELL_DISTANCE = 500
_MAX_ARRAY_SLOTS = 4
_MAX_ARRAY_CANDIDATES = 9
_MAX_ARRAY_CHECKS = 400_000  # (point, tail) checks per query over arrays or functions


def _unknown() -> SolverVerdict:
    return SolverVerdict(VerdictKind.UNKNOWN, reason="search budget exhausted")


def _unit_bounds(formulas: list[Formula]) -> dict[str, tuple[int | None, int | None]]:
    """Bounds implied by top-level single-variable atoms, for pruning and
    for sound unsat claims on finite boxes."""
    bounds: dict[str, tuple[int | None, int | None]] = {}

    def tighten(name: str, lo: int | None, hi: int | None):
        cur_lo, cur_hi = bounds.get(name, (None, None))
        if lo is not None:
            cur_lo = lo if cur_lo is None else max(cur_lo, lo)
        if hi is not None:
            cur_hi = hi if cur_hi is None else min(cur_hi, hi)
        bounds[name] = (cur_lo, cur_hi)

    def visit(f: Formula):
        if isinstance(f, And):
            for a in f.args:
                visit(a)
            return
        if not isinstance(f, Atom):
            return
        var, const, rel = None, None, f.rel
        if isinstance(f.lhs, IntVar) and isinstance(f.rhs, IntConst):
            var, const = f.lhs.name, f.rhs.value
        elif isinstance(f.lhs, IntConst) and isinstance(f.rhs, IntVar):
            var, const = f.rhs.name, f.lhs.value
            rel = {Rel.LT: Rel.GT, Rel.LE: Rel.GE, Rel.GT: Rel.LT, Rel.GE: Rel.LE}.get(rel, rel)
        if var is None:
            return
        if rel == Rel.LE:
            tighten(var, None, const)
        elif rel == Rel.LT:
            tighten(var, None, const - 1)
        elif rel == Rel.GE:
            tighten(var, const, None)
        elif rel == Rel.GT:
            tighten(var, const + 1, None)
        elif rel == Rel.EQ:
            tighten(var, const, const)

    for f in formulas:
        visit(f)
    return bounds


def _int_constants(formulas: list[Formula]) -> list[int]:
    consts: set[int] = set()
    for f in formulas:
        for node in iter_nodes(f):
            if isinstance(node, IntConst):
                consts.add(node.value)
    return sorted(consts)


def _soft_targets(soft, int_vars) -> dict[str, int] | None:
    """Target point when every soft constraint pins a variable to a constant
    (the shape produced by randomized seeding); None otherwise."""
    if not soft:
        return None
    targets: dict[str, int] = {}
    names = set(int_vars)
    for f, _weight in soft:
        if not (isinstance(f, Atom) and f.rel == Rel.EQ):
            return None
        if isinstance(f.lhs, IntVar) and isinstance(f.rhs, IntConst) and f.lhs.name in names:
            targets.setdefault(f.lhs.name, f.rhs.value)
        elif isinstance(f.rhs, IntVar) and isinstance(f.lhs, IntConst) and f.rhs.name in names:
            targets.setdefault(f.rhs.name, f.lhs.value)
        else:
            return None
    return targets


def _shell_points(center: list[int], clip, distance: int):
    """Points of the clipped box at max-norm distance exactly `distance`
    from `center`, each yielded once, in a fixed order."""
    n = len(center)
    if n == 0:
        if distance == 0:
            yield ()
        return
    if distance == 0:
        if all(_within(center[j], clip[j]) for j in range(n)):
            yield tuple(center)
        return
    for i in range(n):
        for side in (-distance, distance):
            xi = center[i] + side
            if not _within(xi, clip[i]):
                continue
            axes = []
            empty = False
            for j in range(n):
                if j == i:
                    axes.append((xi,))
                    continue
                r = distance - 1 if j < i else distance
                lo, hi = center[j] - r, center[j] + r
                clo, chi = clip[j]
                if clo is not None:
                    lo = max(lo, clo)
                if chi is not None:
                    hi = min(hi, chi)
                if lo > hi:
                    empty = True
                    break
                axes.append(range(lo, hi + 1))
            if not empty:
                yield from itertools.product(*axes)


def _within(v: int, clip_pair) -> bool:
    lo, hi = clip_pair
    return (lo is None or v >= lo) and (hi is None or v <= hi)


class BruteForceEngine:
    """Deterministic bounded search for models of the supported fragment.

    Every scan checks points with one predicate over the declared symbols,
    ints, then bools, then arrays and functions; after a point's ints come
    the values of its *tail*, the bools and then one :class:`FuncValue`
    per array or function symbol."""

    def __init__(self, declarations: list[Declaration]):
        self.declarations = declarations
        self.int_vars = sorted(d.name for d in declarations if d.sort == Sort.INT)
        self.bool_vars = sorted(d.name for d in declarations if d.sort == Sort.BOOL)
        self.func_syms = sorted(d.name for d in declarations if d.sort == Sort.ARRAY)
        self.names = self.int_vars + self.bool_vars + self.func_syms
        self.bool_space = list(itertools.product((False, True), repeat=len(self.bool_vars)))
        zeros = tuple(FuncValue(0) for _ in self.func_syms)
        # the tails of a point when no formula reads an array or function
        self.int_tails = [bools + zeros for bools in self.bool_space]

    def check(self, hard: list[Formula], soft: list[tuple[Formula, int]] | None = None) -> SolverVerdict:
        """The verdict on `hard`, with the best model for the weights of
        `soft`; unknown when the search runs out of points or checks."""
        soft = soft or []
        bounds = _unit_bounds(hard)
        formulas = hard + [f for f, _ in soft]
        has_funcs = any(isinstance(t, ArrayVar) for f in formulas for t in iter_subterms(f))
        if any(
            lo is not None and hi is not None and lo > hi
            for lo, hi in (bounds.get(v, (None, None)) for v in self.int_vars)
        ):
            return SolverVerdict(VerdictKind.UNSAT)

        pred = compile_predicate(hard, self.names)
        self.checks_left = _MAX_ARRAY_CHECKS

        def soft_preds():  # compiled only for the scans that read them
            return [compile_predicate([f], self.names) for f, _ in soft]

        tails = self._array_tails(formulas) if has_funcs else None
        box_points = self._box_size(bounds)
        small_finite = box_points is not None and box_points <= _MAX_POINTS_PER_SCAN

        if small_finite:
            return self._finite_scan(bounds, soft, pred, soft_preds(), tails)

        targets = _soft_targets(soft, self.int_vars)
        if not has_funcs and targets is not None:
            model = self._shell_search(pred, targets, bounds)
            if model is not None:
                return SolverVerdict(VerdictKind.SAT, model)
            return _unknown()
        return self._radius_scan(bounds, soft, pred, soft_preds(), tails)

    # -- sizing -------------------------------------------------------------

    def _box_size(self, bounds) -> int | None:
        total = 2 ** len(self.bool_vars)
        for v in self.int_vars:
            lo, hi = bounds.get(v, (None, None))
            if lo is None or hi is None:
                return None
            total *= hi - lo + 1
            if total > _MAX_POINTS_PER_SCAN:
                return total
        return total

    # -- exhaustive scan over a small finite box (sound unsat, true optimum)

    def _finite_scan(self, bounds, soft, pred, soft_preds, tails) -> SolverVerdict:
        points = itertools.product(*(range(bounds[v][0], bounds[v][1] + 1) for v in self.int_vars))
        result = self._scan(points, soft, -1, sum(w for _, w in soft), pred, soft_preds, tails)
        if result is not None:
            return SolverVerdict(VerdictKind.SAT, result[1])
        return _unknown() if tails is not None else SolverVerdict(VerdictKind.UNSAT)

    # -- growing concentric boxes around the origin ---------------------------

    def _radius_scan(self, bounds, soft, pred, soft_preds, tails) -> SolverVerdict:
        best_model: Model | None = None
        best_score = -1
        perfect = sum(w for _, w in soft)
        for radius in _RADIUS_SCHEDULE:
            ranges = []
            empty = False
            for v in self.int_vars:
                lo, hi = bounds.get(v, (None, None))
                lo2 = -radius if lo is None else max(lo, -radius)
                hi2 = radius if hi is None else min(hi, radius)
                if lo2 > hi2:
                    empty = True
                    break
                ranges.append(range(lo2, hi2 + 1))
            if empty:
                continue
            total = 2 ** len(self.bool_vars)
            for r in ranges:
                total *= len(r)
            if total > _MAX_POINTS_PER_SCAN:
                break
            result = self._scan(itertools.product(*ranges), soft, best_score, perfect, pred, soft_preds, tails)
            if result is not None:
                score, model = result
                if not soft or score >= perfect:
                    return SolverVerdict(VerdictKind.SAT, model)
                if score > best_score:
                    best_score, best_model = score, model
            if self.checks_left <= 0:
                break
        if best_model is not None:
            return SolverVerdict(VerdictKind.SAT, best_model)
        return _unknown()

    def _scan(self, points, soft, floor: int, perfect: int, pred, soft_preds, tails):
        """Scan `points` in order; return (score, model) for the best point
        above `floor`, or the first satisfying point when there are no softs.
        Stops at the first point satisfying every soft constraint.  Each
        point is checked with each of its tails: `tails(point)` for queries
        over arrays or functions, ``self.int_tails`` when `tails` is None.
        An array or function query stops scanning once it has made
        ``_MAX_ARRAY_CHECKS`` checks."""
        best = None
        best_score = floor
        weights = [w for _, w in soft]
        if tails is None:
            scan = zip(points, itertools.repeat(self.int_tails))
        else:
            scan = self._budgeted(points, tails)
        for point, point_tails in scan:
            for tail in point_tails:
                if not pred(*point, *tail):
                    continue
                if not soft:
                    return (0, self._model_of(point, tail))
                score = sum(w for sp, w in zip(soft_preds, weights) if sp(*point, *tail))
                if score > best_score:
                    best = self._model_of(point, tail)
                    best_score = score
                    if best_score >= perfect:
                        return (best_score, best)
        return None if best is None else (best_score, best)

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
            funcs={s: fv.copy() for s, fv in zip(self.func_syms, tail[len(self.bool_vars):])},
        )

    # -- expanding max-norm shells around the soft-equality target point -----

    def _shell_search(self, pred, targets: dict[str, int], bounds) -> Model | None:
        center = [targets.get(v, 0) for v in self.int_vars]
        clip = [bounds.get(v, (None, None)) for v in self.int_vars]
        shells = (_shell_points(center, clip, d) for d in range(_MAX_SHELL_DISTANCE + 1))
        points = itertools.islice(itertools.chain.from_iterable(shells), _MAX_POINTS_PER_SCAN * 4)
        result = self._scan(points, [], -1, 0, pred, [], None)
        return None if result is None else result[1]

    def _array_tails(self, formulas):
        """`tails(point)`: the tails of a point for formulas over arrays or
        functions, in scan order: for each assignment of the bools, every
        assignment of the symbols the formulas read.

        Slots are the index values that select-like terms reach when every
        symbol is the constant-0 function; each slot and each default ranges
        over the constants appearing in the problem.  A symbol the formulas
        do not read is the constant-0 function.  A point and bools with more
        than ``_MAX_ARRAY_SLOTS`` slots get no candidates."""
        used: set[str] = set()
        accesses: set[tuple[str, Term]] = set()
        for f in formulas:
            for t in iter_subterms(f):
                if is_select_like(t):
                    used.add(t.array.name)
                    accesses.add((t.array.name, t.index))
                elif isinstance(t, ArrayVar):
                    used.add(t.name)
        syms = [s for s in self.func_syms if s in used]
        column = {s: k for k, s in enumerate(syms)}
        positions = [column.get(s) for s in self.func_syms]  # of each symbol in `syms`, or None
        accesses = {(s, index) for s, index in accesses if s in column}
        zero = FuncValue(0)
        probe_funcs = {s: zero for s in syms}
        candidates = _int_constants(formulas)
        for extra in (-1, 0, 1):
            if extra not in candidates:
                candidates.append(extra)
        candidates.sort()
        if len(candidates) > _MAX_ARRAY_CANDIDATES:
            candidates = candidates[:_MAX_ARRAY_CANDIDATES]

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
                    yield bools + tuple(zero if k is None else values[k] for k in positions)

        return tails


class LocalSolverClient(SolverClient):
    """In-process client backed by the brute-force engine.  It ignores a
    request's deadline: the engine's scans are bounded by a count of
    points and checks, not by time."""

    def solve(self, req: SolverRequest) -> SolverVerdict:
        assert not req.soft
        return _recheck(req, BruteForceEngine(req.declarations).check(list(req.hard)))

    def max_solve(self, req: SolverRequest) -> SolverVerdict:
        return _recheck(req, BruteForceEngine(req.declarations).check(list(req.hard), req.soft))


# ---------------------------------------------------------------------------
# SMT-LIB pipe loop


class _Session:
    def __init__(self, out):
        self.out = out
        self.reader = StreamReader()
        self.parser = Parser()
        # (hard, soft) of each scope, and for a pushed one the (decls, macros) that `pop` restores
        self.frames: list[tuple] = [([], [])]
        self.last_model: Model | None = None

    def emit(self, text: str):
        self.out.write(text + "\n")
        self.out.flush()

    def error(self, message: str):
        """Reply `(error "message")`, with each quote of `message` doubled
        as SMT-LIB escapes it, so that the reply reads as one s-expression."""
        self.emit('(error "' + message.replace('"', '""') + '")')

    @property
    def hard(self) -> list[Formula]:
        return [f for frame in self.frames for f in frame[0]]

    @property
    def soft(self) -> list[tuple[Formula, int]]:
        return [s for frame in self.frames for s in frame[1]]

    def handle(self, sexpr) -> bool:
        """Process one command; returns False on exit."""
        if sexpr.is_atom or not sexpr.items or not sexpr.items[0].is_atom:
            self.error("expected a command")
            return True
        head = sexpr.items[0].text
        args = sexpr.items[1:]
        try:
            if head == "exit":
                return False
            if head in ("set-logic", "set-info", "set-option", "echo"):
                return True
            if head == "reset":
                self.parser = Parser()
                self.frames = [([], [])]
                self.last_model = None
                return True
            if head == "push":
                for _ in range(int(args[0].text) if args else 1):
                    self.frames.append(([], [], dict(self.parser.decls), dict(self.parser.macros)))
                return True
            if head == "pop":
                for _ in range(int(args[0].text) if args else 1):
                    if len(self.frames) > 1:
                        _, _, self.parser.decls, self.parser.macros = self.frames.pop()
                return True
            if head in ("declare-const", "declare-fun", "define-fun"):
                self.parser.command(sexpr)
                return True
            if head == "assert":
                self.frames[-1][0].append(self.parser.formula(sexpr, args[0]))
                return True
            if head == "assert-soft":
                f = self.parser.formula(sexpr, args[0])
                weight = 1
                rest = list(args[1:])
                while rest:
                    item = rest.pop(0)
                    if item.is_atom and item.text == ":weight" and rest:
                        weight = int(rest.pop(0).text)
                self.frames[-1][1].append((f, weight))
                return True
            if head == "check-sat":
                engine = BruteForceEngine(list(self.parser.decls.values()))
                verdict = engine.check(self.hard, self.soft)
                self.last_model = verdict.model
                self.emit(verdict.kind.value)
                return True
            if head == "get-model":
                if self.last_model is None:
                    self.error("no model available")
                else:
                    self.emit(_format_model(self.last_model, list(self.parser.decls.values())))
                return True
            self.error(f"unsupported command {head}")
        except SmtSyntaxError as exc:
            self.error(self.reader.locate(exc))
        except (UnsupportedFeature, ValueError, IndexError) as exc:
            self.error(str(exc))
        return True


def _format_model(model: Model, declarations: list[Declaration]) -> str:
    def num(v: int) -> str:
        return print_term(IntConst(v))

    lines = ["("]
    for d in declarations:
        name = _print_sym(d.name)
        if d.is_function:
            fv = model.funcs.get(d.name, FuncValue(0))
            body = num(fv.default)
            for k in sorted(fv.exceptions, reverse=True):
                body = f"(ite (= x!0 {num(k)}) {num(fv.exceptions[k])} {body})"
            lines.append(f"  (define-fun {name} ((x!0 Int)) Int {body})")
        elif d.sort == Sort.ARRAY:
            fv = model.funcs.get(d.name, FuncValue(0))
            body = f"((as const (Array Int Int)) {num(fv.default)})"
            for k in sorted(fv.exceptions):
                body = f"(store {body} {num(k)} {num(fv.exceptions[k])})"
            lines.append(f"  (define-fun {name} () (Array Int Int) {body})")
        elif d.sort == Sort.BOOL:
            value = "true" if model.bools.get(d.name, False) else "false"
            lines.append(f"  (define-fun {name} () Bool {value})")
        else:
            lines.append(f"  (define-fun {name} () Int {num(model.ints.get(d.name, 0))})")
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
