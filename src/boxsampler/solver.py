"""External SMT solver access: Solve and MAX-Solve over pipes.

The process client speaks SMT-LIB v2 text with one persistent child
process, in two nested scopes.  The *base scope*, one ``(push 1)`` opened
when the child starts, holds the declarations and hard formulas sent so
far.  A request whose declarations and hard formulas extend those of the
base sends only the new ones; any other request pops the base and builds
it again.  So a blocking run sends each box negation once, and the random
strategy sends its formula once.  The *query scope*, pushed inside the
base, holds the soft constraints, `check-sat` and `get-model`, and is
popped by the query itself.  Soft constraints use the assert-soft
convention; once the configured solver rejects that syntax, each query
silently degrades to a plain solve and the verdict is flagged.  Every
satisfiable answer is re-checked against the hard constraints before being
returned.  The re-check reads each hard formula once, as it joins a
:class:`HardList`: a box negation is held as its box, which a model must
lie outside of, and any other formula is evaluated with the internal
evaluator.  So a blocking run does not walk every negation on each answer.
The solver child's engine holds its hard list in the same structure.

Each query goes to the solver in one write: the new base commands,
``(push 1)``, any assert-soft, ``(check-sat)``, ``(get-model)`` and
``(pop 1)``.  It gets two replies: the answer, and then the model, or what
`get-model` gets after `unsat` or `unknown` (an error), which is read and
dropped.  So a query costs one round trip, and waits for its replies until
the client's timeout or the request's deadline, whichever comes first.
:meth:`SolverClient.prefetch` lets a caller send the query of its next
`solve` early, so that the solver answers it while the caller works; the
process client keeps at most that one query in flight.

The solver's output is read with the one SMT-LIB reader, through one
:class:`smtlib.StreamReader` fed with whatever has arrived, so each reply
(a verdict atom, an ``(error ...)`` list or a model) is read once, as one
s-expression, which :func:`parse_model` takes as it is.  Reading waits with
`select`, so it is POSIX-only.  When the solver closes its output, the
error names its exit status.

:func:`parse_model` reads values with two readers: :func:`_int`, a numeral
or ``(- k)``, and :func:`_func`, one loop over an ite chain or a store chain
down to its base, as-array references followed, where the outermost link of
a cell wins.  They and :func:`_frag`, which writes a reply into an error,
do not recurse, so a reply of any depth is read or rejected whole.

The solver child, ``python -m boxsampler.minisolver``, imports this module,
and every start of a :class:`ProcessSolverClient` waits for the child's
imports before its first answer.  So `subprocess` and `shlex` are imported
by the process client only, and the requests and verdicts are plain slotted
classes, not dataclasses, as in every module the child imports.
"""

from __future__ import annotations

import codecs
import contextlib
import operator
import os
import select
import time
from enum import Enum

from .errors import ModelParseError, SmtSyntaxError
from .smtlib import Declaration, StreamReader, numeral, print_declaration, print_formula
from .terms import ZERO, Atom, Formula, FuncValue, IntConst, IntVar, Model, Or, Rel, Sort, _Record, eval_formula


class SolverRequest(_Record):
    """One query.  `deadline`, on the `time.monotonic` clock, is the run's:
    the query is not waited for past it."""

    __slots__ = ("declarations", "hard", "soft", "deadline")

    def __init__(
        self,
        declarations: list[Declaration],
        hard: list[Formula],
        soft: list[tuple[Formula, int]] | None = None,
        deadline: float | None = None,
    ):
        self.declarations = declarations
        self.hard = hard
        self.soft = [] if soft is None else soft
        self.deadline = deadline


class VerdictKind(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"
    ERROR = "error"


class SolverVerdict(_Record):
    __slots__ = ("kind", "model", "reason", "degraded")

    def __init__(self, kind: VerdictKind, model: Model | None = None, reason: str = "", degraded: bool = False):
        self.kind = kind
        self.model = model
        self.reason = reason
        self.degraded = degraded  # soft constraints were dropped

    @property
    def is_sat(self) -> bool:
        return self.kind == VerdictKind.SAT


_SIDE = {Rel.LT: 0, Rel.GT: 1}  # the side of a box that an atom of its negation bounds
_INF = float("inf")


class HardList:
    """A hard list over `declarations`, each formula read once, as it joins.
    The negation of a box over the Int symbols, in the shape
    :func:`intervals.neg_to_formula` prints, is held as the box, where it
    fails, and :meth:`holding` tests a point against every box; the other
    formulas are the `others`.  A point is a sequence whose first values
    are those of the sorted Int symbols `names`.  A box that pins each of
    its symbols is a key of one dict per tuple of their positions, so that
    testing it is one lookup; any other box is tested by integer
    comparisons, newest first."""

    def __init__(self, declarations: list[Declaration]):
        self.declarations = list(declarations)
        self.names = sorted(d.name for d in declarations if d.sort is Sort.INT)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.hard: list[Formula] = []
        self.others: list[Formula] = []
        self.pinned: dict[tuple, tuple] = {}  # {positions: (their getter, {values: negation})}
        self.boxes: list[tuple] = []  # (negation, [(position, lo, hi), ...]) of the other boxes, oldest first
        self.bounds: set[int] = set()  # the constants of the box negations, and of the engine's others

    def _sides(self, f: Formula) -> list[tuple] | None:
        """``[(position, lo, hi), ...]`` by position, of the box outside of
        which `f` holds, with an infinite bound for an open side, when `f`
        is an Or of two or more atoms ``x < lo`` and ``x > hi`` over `names`
        with at most one of each per symbol; None for any other formula."""
        if f.__class__ is not Or or len(f.args) < 2:
            return None
        box: dict[int | None, list] = {}  # None: a symbol not of `names`
        for a in f.args:
            if a.__class__ is not Atom or a.rel not in _SIDE:
                return None
            if a.lhs.__class__ is not IntVar or a.rhs.__class__ is not IntConst:
                return None
            bounds = box.setdefault(self.index.get(a.lhs.name), [-_INF, _INF])
            if abs(bounds[_SIDE[a.rel]]) != _INF:  # a second atom on this side
                return None
            bounds[_SIDE[a.rel]] = a.rhs.value
        return None if None in box else sorted((i, lo, hi) for i, (lo, hi) in box.items())

    def extend(self, hard: list[Formula]) -> list[Formula]:
        """Read the formulas of `hard`, which extends `self.hard`, past it;
        the new `others`."""
        new, others = hard[len(self.hard):], []
        for f in new:
            sides = self._sides(f)
            if sides is None:
                others.append(f)
                continue
            self.bounds.update(a.rhs.value for a in f.args)
            if any(lo != hi for _, lo, hi in sides):
                self.boxes.append((f, sides))
                continue
            positions = tuple(i for i, _, _ in sides)
            get, points = self.pinned.setdefault(positions, (operator.itemgetter(*positions), {}))
            points.setdefault(get({i: lo for i, lo, _ in sides}), f)
        self.hard += new
        self.others += others
        return others

    def holding(self, point) -> Formula | None:
        """The negation of a box that holds `point`, or None."""
        for get, points in self.pinned.values():
            f = points.get(get(point))
            if f is not None:
                return f
        for f, sides in reversed(self.boxes):
            for i, lo, hi in sides:
                if not lo <= point[i] <= hi:
                    break
            else:
                return f
        return None


class SolverClient:
    """Interface for Solve / MAX-Solve providers.  Exclusive access: one
    in-flight query; callers serialize."""

    def solve(self, req: SolverRequest) -> SolverVerdict:
        raise NotImplementedError

    def prefetch(self, req: SolverRequest) -> None:
        """A hint that `solve(req)` comes next, so that a client may start
        the query now and answer it while the caller works.  The call that
        follows gets its own verdict whatever it asks.  Here it does
        nothing."""

    def max_solve(self, req: SolverRequest) -> SolverVerdict:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Model output parsing


def parse_model(reply, declarations: list[Declaration]) -> Model:
    """The model of a get-model reply, as read, in a `(model ...)` or bare
    `((define-fun ...))` wrapper.  Each declared symbol is read from its
    entry, by :func:`_int`, as true or false, or by :func:`_func`; a symbol
    with no entry is the zero of its sort."""
    if reply.is_atom:
        raise ModelParseError(f"expected a model, got {reply.text!r}")
    items = reply.items
    if items and items[0].is_atom and items[0].text == "model":
        items = items[1:]

    defs: dict[str, tuple[str | None, object]] = {}  # name -> (parameter or None, body sexpr)
    for entry in items:
        if entry.is_atom or len(entry.items) != 5 or entry.items[0].text != "define-fun":
            raise ModelParseError(f"unexpected model entry: {_frag(entry)}")
        _, name_s, params_s, _sort_s, body_s = entry.items
        if not name_s.is_atom or params_s.is_atom:
            raise ModelParseError(f"unexpected model entry: {_frag(entry)}")
        name = name_s.text.strip("|")
        if len(params_s.items) > 1:
            raise ModelParseError(f"function of arity > 1 in model: {name}")
        defs[name] = (_param(params_s) if params_s.items else None, body_s)

    model = Model()
    for name, decl in {d.name: d for d in declarations}.items():
        param, body = defs.get(name, (None, None))
        if body is None:
            value = ZERO[decl.sort]
        elif decl.sort is Sort.ARRAY:
            if (param is not None) != decl.is_function:
                kind = "a unary function body" if decl.is_function else "an array value"
                raise ModelParseError(f"expected {kind} for {name}")
            value = _func(body, param, defs)
        elif param is not None:
            raise ModelParseError(f"expected a constant value for {name}")
        elif decl.sort is Sort.INT:
            value = _int(body)
        elif body.is_atom and body.text in ("true", "false"):
            value = body.text == "true"
        else:
            raise ModelParseError(f"not a boolean constant: {_frag(body)}")
        model.of(decl.sort)[name] = value
    return model


def _param(params) -> str:
    """The name of the one parameter of a ``((x Int))`` list."""
    binding = None if params.is_atom or len(params.items) != 1 else params.items[0]
    if binding is None or binding.is_atom or len(binding.items) != 2 or not binding.items[0].is_atom:
        raise ModelParseError(f"unexpected parameter list: {_frag(params)}")
    return binding.items[0].text


def _frag(sexpr) -> str:
    """The text of `sexpr`, one space between tokens, written from a stack
    of its nodes, so that a reply of any depth is written whole."""
    parts, stack = [], [sexpr]
    while stack:
        node = stack.pop()
        if node is not None and parts and parts[-1] != "(":
            parts.append(" ")
        if node is None:  # the end of a list
            parts.append(")")
        elif node.is_atom:
            parts.append(node.text)
        else:
            parts.append("(")
            stack += [None, *reversed(node.items)]
    return "".join(parts)


def _int(body) -> int:
    """The integer of a numeral, or of ``(- k)`` with `k` read alike."""
    sign = 1
    while not body.is_atom and len(body.items) == 2 and body.items[0].is_atom and body.items[0].text == "-":
        sign, body = -sign, body.items[1]
    value = numeral(body.text, ModelParseError) if body.is_atom else None
    if value is None:
        raise ModelParseError(f"not an integer constant: {_frag(body)}")
    return sign * value


def _func(body, param: str | None, defs) -> FuncValue:
    """The value of an ite chain over `param`, or with no `param` of an
    array: a store chain down to a constant array, a lambda, or an as-array
    of a function of `defs`, whose ite chain the loop goes on into.  Each
    link is one step of the loop; the outermost link of a cell wins."""
    cells: dict[int, int] = {}
    while True:
        items = None if body.is_atom else body.items
        head = items[0] if items else None
        if param is not None:  # (ite (= param k) v rest), down to the default
            if head is None or not head.is_atom or head.text != "ite":
                return FuncValue(_int(body), cells)
            cond = items[1] if len(items) == 4 else None
            if cond is None or cond.is_atom or len(cond.items) != 3 or cond.items[0].text != "=":
                raise ModelParseError(f"unsupported function body: {_frag(body)}")
            a, b = cond.items[1:]
            cells.setdefault(_int(b if a.is_atom and a.text == param else a), _int(items[2]))
            body = items[3]
        elif head is None:
            raise ModelParseError(f"not an array value: {_frag(body)}")
        elif head.is_atom and head.text == "store" and len(items) == 4:
            cells.setdefault(_int(items[2]), _int(items[3]))
            body = items[1]
        elif not head.is_atom and head.items and head.items[0].is_atom and head.items[0].text == "as":
            if len(items) != 2:  # ((as const (Array Int Int)) <default>)
                raise ModelParseError(f"unsupported array value: {_frag(body)}")
            return FuncValue(_int(items[1]), cells)
        elif head.is_atom and head.text == "_" and len(items) == 3 and items[1].text == "as-array":
            ref = items[2].text.strip("|")
            param, body = defs.get(ref, (None, None))
            if param is None:
                raise ModelParseError(f"as-array refers to unknown function {ref}")
        elif head.is_atom and head.text == "lambda" and len(items) == 3:
            param, body = _param(items[1]), items[2]
        else:
            raise ModelParseError(f"unsupported array value: {_frag(body)}")


# ---------------------------------------------------------------------------
# Process adapter


class _ProcessHandle:
    """Child process whose output is read one reply at a time, each within
    a deadline."""

    def __init__(self, cmd: list[str]):
        import subprocess

        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self.reader = StreamReader()
        self.replies = iter(())  # what the reader has yet to yield of the output so far

    def send(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def reply(self, deadline: float):
        """The next s-expression of the solver's output, read by `deadline`.
        Output that follows it is left for the next reply.  A ")" closing
        nothing raises its `SmtSyntaxError`."""
        out = self.proc.stdout.fileno()
        while (node := next(self.replies, None)) is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([out], [], [], remaining)[0]:
                raise TimeoutError("solver response timed out")
            data = os.read(out, 1 << 16)
            if not data:
                import subprocess

                try:  # wait for the exit a second at most, and not past the deadline
                    wait = max(0.0, min(1.0, deadline - time.monotonic()))
                    status = f"exit status {self.proc.wait(timeout=wait)}"
                except subprocess.TimeoutExpired:
                    status = "still running"
                raise EOFError(f"solver closed its output ({status})")
            self.replies = self.reader.feed(self.decoder.decode(data))
        if isinstance(node, SmtSyntaxError):
            raise node
        return node

    def kill(self):
        """Stop the child, reap it and close its pipes; harmless if it has
        exited or been killed already."""
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        with contextlib.suppress(OSError):  # input left unflushed to a dead child
            self.proc.stdin.close()


class ProcessSolverClient(SolverClient):
    """Drives an external solver (default `z3 -in`) over standard input and
    output, one persistent process per sampler run.

    The client remembers what its base scope holds (`_base`): a request
    that extends it is sent as its new declarations and hard formulas, and
    any other request rebuilds the base.  A reset (timeout, end of output,
    an unreadable or error reply, a dead child) forgets the base along with
    the child, and the query in flight (`_pending`) with them; so does
    `close`.

    The client learns whether the solver takes assert-soft from the answers
    to its soft queries: an ``(error ...)`` reply that names assert-soft, or
    the SMT-LIB answer ``unsupported``, rejects it, and that query and
    every later one are asked without their soft constraints."""

    def __init__(self, cmd: str = "z3 -in", timeout: float = 60.0):
        import shlex

        self.cmd = shlex.split(cmd)
        self.timeout = timeout
        self._handle: _ProcessHandle | None = None
        self._soft_supported = True  # until the answer to a soft query rejects assert-soft
        self._base: tuple[list[Declaration], list[Formula]] = ([], [])
        # the query in flight, sent by `prefetch`, and the verdict of its failed send or None
        self._pending: tuple[SolverRequest, SolverVerdict | None] | None = None
        self._checked: HardList | None = None  # what the re-check of the last sat answer read

    # -- lifecycle ---------------------------------------------------------

    def _ensure(self) -> _ProcessHandle:
        if self._handle is None or self._handle.proc.poll() is not None:
            self._reset()
            self._handle = _ProcessHandle(self.cmd)
            self._handle.send("(set-option :print-success false)\n(set-option :produce-models true)\n(push 1)")
        return self._handle

    def _reset(self):
        self._base = ([], [])
        self._pending = None
        if self._handle is not None:
            self._handle.kill()
            self._handle = None

    def close(self):
        if self._handle is not None:
            try:
                self._handle.send("(exit)")
            except Exception:
                pass
            self._reset()

    # -- queries -----------------------------------------------------------

    def solve(self, req: SolverRequest) -> SolverVerdict:
        assert not req.soft, "plain solve takes no soft constraints"
        return self._recheck(req, self._query(req, use_soft=False))

    def prefetch(self, req: SolverRequest) -> None:
        """Send the query of `solve(req)` now, unless a query is in flight
        already; that `solve` reads its replies, and any other query reads
        and drops them first.  A failed send is that `solve`'s verdict."""
        assert not req.soft, "plain solve takes no soft constraints"
        if self._pending is None:
            self._pending = (req, self._send(req, use_soft=False))

    def max_solve(self, req: SolverRequest) -> SolverVerdict:
        if req.soft and self._soft_supported:
            verdict = self._query(req, use_soft=True)
            rejected = verdict.reason == "unsupported" or "assert-soft" in verdict.reason
            if verdict.kind != VerdictKind.ERROR or not rejected:
                return self._recheck(req, verdict)
            self._soft_supported = False
        hard_only = SolverRequest(req.declarations, req.hard, [], req.deadline)
        verdict = self._query(hard_only, use_soft=False)
        verdict.degraded = bool(req.soft)
        return self._recheck(req, verdict)

    def _recheck(self, req: SolverRequest, verdict: SolverVerdict) -> SolverVerdict:
        """Defensive re-check: a SAT model must satisfy every hard
        constraint.  Each formula is read once, as it joins `_checked`; a
        request that does not extend its declarations and hard list
        rebuilds it."""
        if not verdict.is_sat:
            return verdict
        checked = self._checked
        kept = checked is not None and _extends(req.declarations, checked.declarations)
        if not (kept and _extends(req.hard, checked.hard)):
            checked = self._checked = HardList(req.declarations)
        checked.extend(req.hard)
        model = verdict.model
        try:
            failed = next((f for f in checked.others if not eval_formula(f, model)), None)
            failed = failed or checked.holding([model.value(Sort.INT, name) for name in checked.names])
        except Exception as exc:  # incomplete model and the like
            return SolverVerdict(VerdictKind.ERROR, reason=f"model re-check failed: {exc}")
        if failed is None:
            return verdict
        reason = f"solver model fails hard constraint {print_formula(failed)}"
        return SolverVerdict(VerdictKind.ERROR, reason=reason, degraded=verdict.degraded)

    def _base_commands(self, req: SolverRequest) -> list[str]:
        """The commands that make the base scope hold `req`'s declarations
        and hard formulas: the new ones when the base holds a prefix of
        each, else a popped and rebuilt base."""
        decls, hard = self._base
        commands = []
        if not (_extends(req.declarations, decls) and _extends(req.hard, hard)):
            commands, decls, hard = ["(pop 1)", "(push 1)"], [], []
        commands += map(print_declaration, req.declarations[len(decls):])
        commands += [f"(assert {print_formula(f)})" for f in req.hard[len(hard):]]
        self._base = (list(req.declarations), list(req.hard))
        return commands

    def _query(self, req: SolverRequest, use_soft: bool) -> SolverVerdict:
        """The verdict on `req`: that of the query in flight when it asks
        the same, else that of a query sent now, once the replies of any
        other query in flight have been read and dropped."""
        if self._pending is not None:
            (sent, failure), self._pending = self._pending, None
            verdict = failure or self._receive(sent)
            if sent == req:
                return verdict
        return self._send(req, use_soft) or self._receive(req)

    def _send(self, req: SolverRequest, use_soft: bool) -> SolverVerdict | None:
        """Write `req`'s query in one write, the base commands through
        ``(pop 1)``: None once written, else the verdict of the failure."""
        try:
            handle = self._ensure()
            commands = [*self._base_commands(req), "(push 1)"]
            if use_soft:
                commands += [f"(assert-soft {print_formula(f)} :weight {weight})" for f, weight in req.soft]
            handle.send("\n".join([*commands, "(check-sat)", "(get-model)", "(pop 1)"]))
            return None
        except OSError as exc:  # a child that cannot start, BrokenPipeError
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=f"solver process failure: {exc}")

    def _receive(self, req: SolverRequest) -> SolverVerdict:
        """Read the two replies of `req`'s query, sent last: the answer, and
        then the model, or what `get-model` gets after `unsat` or `unknown`
        (an error, or a model), which is dropped.  Any other answer resets
        the child, whose later replies no longer follow the queries."""
        handle = self._handle
        try:
            deadline = time.monotonic() + self.timeout
            if req.deadline is not None:
                deadline = min(deadline, req.deadline)
            answer = handle.reply(deadline)
            if not answer.is_atom or answer.text == "unsupported":
                self._reset()
                return SolverVerdict(VerdictKind.ERROR, reason=_frag(answer))
            if answer.text not in ("sat", "unsat", "unknown"):
                self._reset()
                return SolverVerdict(VerdictKind.ERROR, reason=f"unexpected solver answer {answer.text!r}")
            reply = handle.reply(deadline)
            if answer.text == "unsat":
                return SolverVerdict(VerdictKind.UNSAT)
            if answer.text == "unknown":
                return SolverVerdict(VerdictKind.UNKNOWN, reason="solver answered unknown")
            return SolverVerdict(VerdictKind.SAT, model=parse_model(reply, req.declarations))
        except (EOFError, OSError) as exc:  # TimeoutError is an OSError
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=f"solver process failure: {exc}")
        except ModelParseError as exc:
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=str(exc))
        except SmtSyntaxError as exc:  # a reply that starts with a ")" closing nothing
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=f"unreadable solver reply: {handle.reader.locate(exc)}")


def _extends(items: list, prefix: list) -> bool:
    """Whether the list `prefix` is a prefix of the list `items`, compared
    as lists compare: by identity first, in one pass in C, as a blocking
    run asks this of every hard list."""
    return len(prefix) <= len(items) and items[: len(prefix)] == prefix
