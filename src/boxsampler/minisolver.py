"""Desk-scale fallback solver: bounded enumeration behind an SMT-LIB pipe.

`python -m boxsampler.minisolver` speaks enough SMT-LIB v2 on standard
input/output to serve as the `--solver-cmd` backend for toy problems when no
real solver is installed: declare-fun/-const, assert, assert-soft, push/pop,
check-sat, get-model, reset, exit.  Satisfiability is decided by exhaustive
scans over growing integer boxes; unsat is only claimed when the feasible
box was provably finite and fully scanned.  MAX-Solve scans the same region
and keeps the best soft-constraint score.  Everything is deterministic.

Every scan checks points with compiled predicates (:mod:`.compiled`).
Queries over integers and Booleans only use
:func:`compiled.compile_predicate`, which takes a point's values
positionally.  Queries with arrays or functions build a candidate
:class:`Model` per point and slot assignment and check it with
:func:`compiled.compile_formula`.

:class:`LocalSolverClient` exposes the same engine in-process for tests and
scripts.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from .compiled import compile_formula, compile_predicate
from .errors import SmtSyntaxError, UnsupportedFeature
from .smtlib import Declaration, _Parser, _read_sexprs, print_formula
from .solver import SolverClient, SolverRequest, SolverVerdict, VerdictKind, _recheck
from .terms import (
    And,
    ArrayVar,
    Atom,
    Formula,
    FunApp,
    FuncValue,
    IntConst,
    IntVar,
    Model,
    Rel,
    Select,
    Sort,
    eval_term,
    iter_nodes,
    iter_subterms,
)

_RADIUS_SCHEDULE = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 150)
_MAX_POINTS_PER_SCAN = 400_000
_MAX_SHELL_DISTANCE = 500
_MAX_ARRAY_SLOTS = 4
_MAX_ARRAY_CANDIDATES = 9


@dataclass
class EngineResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: Model | None = None


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
    """Deterministic bounded search for models of the supported fragment."""

    def __init__(self, declarations: list[Declaration]):
        self.declarations = declarations
        self.int_vars = sorted(d.name for d in declarations if d.sort == Sort.INT and not d.is_function)
        self.bool_vars = sorted(d.name for d in declarations if d.sort == Sort.BOOL)
        self.func_syms = sorted(
            d.name for d in declarations if d.is_function or d.sort == Sort.ARRAY
        )

    def check(self, hard: list[Formula], soft: list[tuple[Formula, int]] | None = None) -> EngineResult:
        soft = soft or []
        bounds = _unit_bounds(hard)
        formulas = hard + [f for f, _ in soft]
        has_funcs = any(isinstance(t, (ArrayVar, FunApp)) for f in formulas for t in iter_subterms(f))
        if any(
            lo is not None and hi is not None and lo > hi
            for lo, hi in (bounds.get(v, (None, None)) for v in self.int_vars)
        ):
            return EngineResult("unsat")

        if has_funcs:
            pred = compile_formula(And(tuple(hard)))
        else:
            names = self.int_vars + self.bool_vars
            pred = compile_predicate(hard, names)

        def soft_preds():  # compiled only for the scans that read them
            if has_funcs:
                return [compile_formula(f) for f, _ in soft]
            return [compile_predicate([f], names) for f, _ in soft]

        box_points = self._box_size(bounds)
        small_finite = box_points is not None and box_points <= _MAX_POINTS_PER_SCAN

        if small_finite:
            return self._finite_scan(bounds, hard, soft, pred, soft_preds(), has_funcs)

        targets = _soft_targets(soft, self.int_vars)
        if not has_funcs and targets is not None:
            model = self._shell_search(pred, targets, bounds)
            if model is not None:
                return EngineResult("sat", model)
            return EngineResult("unknown")
        return self._radius_scan(bounds, hard, soft, pred, soft_preds(), has_funcs)

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

    def _finite_scan(self, bounds, hard, soft, pred, soft_preds, has_funcs) -> EngineResult:
        ranges = [range(bounds[v][0], bounds[v][1] + 1) for v in self.int_vars]
        result = self._scan(ranges, hard, soft, -1, sum(w for _, w in soft), pred, soft_preds, has_funcs)
        if result is not None:
            return EngineResult("sat", result[1])
        return EngineResult("unknown" if has_funcs else "unsat")

    # -- growing concentric boxes around the origin ---------------------------

    def _radius_scan(self, bounds, hard, soft, pred, soft_preds, has_funcs) -> EngineResult:
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
            result = self._scan(ranges, hard, soft, best_score, perfect, pred, soft_preds, has_funcs)
            if result is not None:
                score, model = result
                if not soft or score >= perfect:
                    return EngineResult("sat", model)
                if score > best_score:
                    best_score, best_model = score, model
        if best_model is not None:
            return EngineResult("sat", best_model)
        return EngineResult("unknown")

    def _scan(self, ranges, hard, soft, floor: int, perfect: int, pred, soft_preds, has_funcs: bool):
        """Scan the box; return (score, model) for the best point above
        `floor`, or the first satisfying point when there are no softs.
        Stops at the first point satisfying every soft constraint.  The
        predicates take a point's values positionally, or a candidate Model
        when the formulas have arrays or functions (`has_funcs`)."""
        best = None
        best_score = floor
        bool_space = list(itertools.product((False, True), repeat=len(self.bool_vars)))
        weights = [w for _, w in soft]
        if not has_funcs:
            for point in itertools.product(*ranges):
                for bools_point in bool_space:
                    if not pred(*point, *bools_point):
                        continue
                    if not soft:
                        return (0, self._model_of(point, bools_point))
                    score = sum(
                        w for sp, w in zip(soft_preds, weights) if sp(*point, *bools_point)
                    )
                    if score > best_score:
                        best = self._model_of(point, bools_point)
                        best_score = score
                        if best_score >= perfect:
                            return (best_score, best)
            return None if best is None else (best_score, best)

        array_variants = self._array_variants(hard, soft)
        for point in itertools.product(*ranges):
            ints = dict(zip(self.int_vars, point))
            for bools_point in bool_space:
                bools = dict(zip(self.bool_vars, bools_point))
                for funcs in array_variants(ints, bools):
                    model = Model(ints=dict(ints), bools=dict(bools), funcs=funcs)
                    self._fill_funcs(model)
                    try:
                        if not pred(model):
                            continue
                    except Exception:
                        continue
                    if not soft:
                        return (0, model)
                    score = sum(w for sp, w in zip(soft_preds, weights) if sp(model))
                    if score > best_score:
                        best, best_score = model, score
                        if best_score >= perfect:
                            return (best_score, best)
        return None if best is None else (best_score, best)

    def _model_of(self, point, bools_point) -> Model:
        model = Model(ints=dict(zip(self.int_vars, point)), bools=dict(zip(self.bool_vars, bools_point)))
        self._fill_funcs(model)
        return model

    def _fill_funcs(self, model: Model) -> None:
        for name in self.func_syms:
            model.funcs.setdefault(name, FuncValue(0))

    # -- expanding max-norm shells around the soft-equality target point -----

    def _shell_search(self, pred, targets: dict[str, int], bounds) -> Model | None:
        center = [targets.get(v, 0) for v in self.int_vars]
        clip = [bounds.get(v, (None, None)) for v in self.int_vars]
        bool_space = list(itertools.product((False, True), repeat=len(self.bool_vars)))
        budget = _MAX_POINTS_PER_SCAN * 4
        for distance in range(_MAX_SHELL_DISTANCE + 1):
            for point in _shell_points(center, clip, distance):
                for bools_point in bool_space:
                    if pred(*point, *bools_point):
                        return self._model_of(point, bools_point)
                budget -= 1
                if budget <= 0:
                    return None
        return None

    def _array_variants(self, hard, soft):
        """Enumerator of array/function assignments for a fixed scalar point.

        Slots are the index values reached by select terms; each slot and
        each default ranges over the constants appearing in the problem.
        Returns a callable yielding funcs dicts; yields one empty assignment
        when the formulas touch no array symbols."""
        formulas = hard + [f for f, _ in soft]
        used: set[str] = set()
        for f in formulas:
            for t in iter_subterms(f):
                if isinstance(t, Select) and isinstance(t.array, ArrayVar):
                    used.add(t.array.name)
                elif isinstance(t, FunApp):
                    used.add(t.fname)
                elif isinstance(t, ArrayVar):
                    used.add(t.name)
        syms = [s for s in self.func_syms if s in used]
        if not syms:
            return lambda ints, bools: iter(({},))
        candidates = _int_constants(formulas)
        for extra in (-1, 0, 1):
            if extra not in candidates:
                candidates.append(extra)
        candidates.sort()
        if len(candidates) > _MAX_ARRAY_CANDIDATES:
            candidates = candidates[:_MAX_ARRAY_CANDIDATES]

        def gen(ints, bools):
            # discover slot indices by evaluating index terms, iterating to a
            # fixpoint because indices may contain selects themselves
            slots: dict[str, set[int]] = {s: set() for s in syms}
            probe_funcs = {s: FuncValue(0) for s in syms}
            for _ in range(4):
                model = Model(ints=dict(ints), bools=dict(bools), funcs=probe_funcs)
                found = False
                for f in formulas:
                    for t in iter_subterms(f):
                        idx = None
                        if isinstance(t, Select) and isinstance(t.array, ArrayVar):
                            sym, idx = t.array.name, t.index
                        elif isinstance(t, FunApp):
                            sym, idx = t.fname, t.arg
                        if idx is None or sym not in slots:
                            continue
                        try:
                            value = eval_term(idx, model)
                        except Exception:
                            continue
                        if value not in slots[sym]:
                            slots[sym].add(value)
                            found = True
                if not found:
                    break
            slot_list = [(s, idx) for s in syms for idx in sorted(slots[s])]
            if len(slot_list) > _MAX_ARRAY_SLOTS:
                return iter(())  # too big; caller will end up unknown
            axes = [candidates] * (len(syms) + len(slot_list))

            def build():
                for combo in itertools.product(*axes):
                    defaults = combo[: len(syms)]
                    values = combo[len(syms):]
                    funcs = {s: FuncValue(d) for s, d in zip(syms, defaults)}
                    for (s, idx), v in zip(slot_list, values):
                        funcs[s] = funcs[s].with_store(idx, v)
                    yield funcs

            return build()

        return gen


class LocalSolverClient(SolverClient):
    """In-process client backed by the brute-force engine."""

    def solve(self, req: SolverRequest) -> SolverVerdict:
        assert not req.soft
        return _recheck(req, self._run(req, []))

    def max_solve(self, req: SolverRequest) -> SolverVerdict:
        return _recheck(req, self._run(req, req.soft))

    def _run(self, req: SolverRequest, soft) -> SolverVerdict:
        engine = BruteForceEngine(req.declarations)
        result = engine.check(list(req.hard), list(soft))
        if result.status == "sat":
            return SolverVerdict(VerdictKind.SAT, model=result.model)
        if result.status == "unsat":
            return SolverVerdict(VerdictKind.UNSAT)
        return SolverVerdict(VerdictKind.UNKNOWN, reason="search budget exhausted")


# ---------------------------------------------------------------------------
# SMT-LIB pipe loop


class _Session:
    def __init__(self, out):
        self.out = out
        self.parser = _Parser()
        self.frames: list[tuple[list[Formula], list[tuple[Formula, int]]]] = [([], [])]
        self.last_model: Model | None = None

    def emit(self, text: str):
        self.out.write(text + "\n")
        self.out.flush()

    @property
    def hard(self) -> list[Formula]:
        return [f for frame in self.frames for f in frame[0]]

    @property
    def soft(self) -> list[tuple[Formula, int]]:
        return [s for frame in self.frames for s in frame[1]]

    def handle(self, sexpr) -> bool:
        """Process one command; returns False on exit."""
        if sexpr.is_atom or not sexpr.items or not sexpr.items[0].is_atom:
            self.emit('(error "expected a command")')
            return True
        head = sexpr.items[0].text
        args = sexpr.items[1:]
        try:
            if head == "exit":
                return False
            if head in ("set-logic", "set-info", "set-option", "echo"):
                return True
            if head == "reset":
                self.parser = _Parser()
                self.frames = [([], [])]
                self.last_model = None
                return True
            if head == "push":
                for _ in range(int(args[0].text) if args else 1):
                    self.frames.append(([], []))
                return True
            if head == "pop":
                for _ in range(int(args[0].text) if args else 1):
                    if len(self.frames) > 1:
                        self.frames.pop()
                return True
            if head in ("declare-const", "declare-fun", "define-fun"):
                self.parser._command(sexpr)
                return True
            if head == "assert":
                f = self.parser._expr(args[0], {})
                self.frames[-1][0].append(f)
                return True
            if head == "assert-soft":
                f = self.parser._expr(args[0], {})
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
                result = engine.check(self.hard, self.soft)
                self.last_model = result.model
                self.emit(result.status)
                return True
            if head == "get-model":
                if self.last_model is None:
                    self.emit('(error "no model available")')
                else:
                    self.emit(_format_model(self.last_model, list(self.parser.decls.values())))
                return True
            self.emit(f'(error "unsupported command {head}")')
        except (SmtSyntaxError, UnsupportedFeature, ValueError, IndexError) as exc:
            self.emit(f'(error "{exc}")')
        return True


def _format_model(model: Model, declarations: list[Declaration]) -> str:
    lines = ["("]
    for d in declarations:
        if d.is_function:
            fv = model.funcs.get(d.name, FuncValue(0))
            body = _ite_chain_text("x!0", fv)
            lines.append(f"  (define-fun {d.name} ((x!0 Int)) Int {body})")
        elif d.sort == Sort.ARRAY:
            fv = model.funcs.get(d.name, FuncValue(0))
            body = f"((as const (Array Int Int)) {_int_text(fv.default)})"
            for k in sorted(fv.exceptions):
                body = f"(store {body} {_int_text(k)} {_int_text(fv.exceptions[k])})"
            lines.append(f"  (define-fun {d.name} () (Array Int Int) {body})")
        elif d.sort == Sort.BOOL:
            value = "true" if model.bools.get(d.name, False) else "false"
            lines.append(f"  (define-fun {d.name} () Bool {value})")
        else:
            lines.append(f"  (define-fun {d.name} () Int {_int_text(model.ints.get(d.name, 0))})")
    lines.append(")")
    return "\n".join(lines)


def _int_text(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


def _ite_chain_text(param: str, fv: FuncValue) -> str:
    body = _int_text(fv.default)
    for k in sorted(fv.exceptions, reverse=True):
        body = f"(ite (= {param} {_int_text(k)}) {_int_text(fv.exceptions[k])} {body})"
    return body


def main(argv=None) -> int:
    session = _Session(sys.stdout)
    buffer = ""
    for line in sys.stdin:
        buffer += line
        while True:
            complete, rest = _split_complete(buffer)
            if complete is None:
                break
            buffer = rest
            try:
                exprs = _read_sexprs(complete)
            except SmtSyntaxError as exc:
                session.emit(f'(error "{exc}")')
                continue
            for sexpr in exprs:
                if not session.handle(sexpr):
                    return 0
    return 0


def _split_complete(buffer: str):
    """Split off the first complete top-level s-expression, if any."""
    depth = 0
    in_str = in_sym = in_comment = False
    for i, ch in enumerate(buffer):
        if in_comment:
            if ch == "\n":
                in_comment = False
            continue
        if in_str:
            if ch == '"':
                in_str = False
            continue
        if in_sym:
            if ch == "|":
                in_sym = False
            continue
        if ch == ";":
            in_comment = True
        elif ch == '"':
            in_str = True
        elif ch == "|":
            in_sym = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return buffer[: i + 1], buffer[i + 1 :]
    return None, buffer


if __name__ == "__main__":
    raise SystemExit(main())
