"""External SMT solver access: Solve and MAX-Solve over pipes.

The process client speaks SMT-LIB v2 text with one persistent child
process, in two nested scopes.  The *base scope*, one ``(push 1)`` opened
when the child starts, holds the declarations and hard formulas sent so
far.  A request whose declarations and hard formulas extend those of the
base sends only the new ones; any other request pops the base and builds
it again.  So a blocking run sends each box negation once, and the random
strategy sends its formula once.  The *query scope*, pushed inside the
base, holds the soft constraints, `check-sat` and `get-model`, and is
popped after the answer.  Soft constraints use the assert-soft
convention; once the configured solver rejects that syntax, each query
silently degrades to a plain solve and the verdict is flagged.  Every
satisfiable answer is re-checked against the hard constraints with the
internal evaluator before being returned.

Each query goes to the solver in one write, and waits for its answer until
the client's timeout or the request's deadline, whichever comes first.
The solver's output is read with the one SMT-LIB reader, through one
:class:`smtlib.StreamReader` fed with whatever has arrived, so each reply
(a verdict atom, an ``(error ...)`` list or a model) is read once, as one
s-expression, which :func:`parse_model` takes as it is.  Reading waits with
`select`, so it is POSIX-only.  When the solver closes its output, the
error names its exit status.

The solver child, ``python -m boxsampler.minisolver``, imports this module,
and every start of a :class:`ProcessSolverClient` waits for the child's
imports before its first answer.  So `subprocess` and `shlex` are imported
by the process client only, and the requests and verdicts are plain slotted
classes, not dataclasses, as in every module the child imports.
"""

from __future__ import annotations

import codecs
import contextlib
import os
import select
import time
from enum import Enum

from .errors import ModelParseError, SmtSyntaxError
from .smtlib import Declaration, StreamReader, numeral, print_declaration, print_formula
from .terms import (
    Formula,
    FuncValue,
    Model,
    Sort,
    _Record,
    eval_formula,
)


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


def _recheck(req: SolverRequest, verdict: SolverVerdict) -> SolverVerdict:
    """Defensive re-check: a SAT model must satisfy every hard constraint."""
    if not verdict.is_sat:
        return verdict
    try:
        for f in req.hard:
            if not eval_formula(f, verdict.model):
                return SolverVerdict(
                    VerdictKind.ERROR,
                    reason=f"solver model fails hard constraint {print_formula(f)}",
                    degraded=verdict.degraded,
                )
    except Exception as exc:  # incomplete model and the like
        return SolverVerdict(VerdictKind.ERROR, reason=f"model re-check failed: {exc}")
    return verdict


class SolverClient:
    """Interface for Solve / MAX-Solve providers.  Exclusive access: one
    in-flight query; callers serialize."""

    def solve(self, req: SolverRequest) -> SolverVerdict:
        raise NotImplementedError

    def max_solve(self, req: SolverRequest) -> SolverVerdict:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Model output parsing


def parse_model(reply, declarations: list[Declaration]) -> Model:
    """Parse a get-model reply, as read, into the finite model representation.

    Accepts the `(model ...)` and bare `((define-fun ...))` wrappers, integer
    constants in `(- k)` form, constant arrays with store chains, as-array
    references, and ite-chains over the function argument."""
    if reply.is_atom:
        raise ModelParseError(f"expected a model, got {reply.text!r}")
    items = reply.items
    if items and items[0].is_atom and items[0].text == "model":
        items = items[1:]

    raw_funs: dict[str, tuple[str | None, object]] = {}  # name -> (parameter or None, body sexpr)
    for entry in items:
        if entry.is_atom or len(entry.items) != 5 or entry.items[0].text != "define-fun":
            raise ModelParseError(f"unexpected model entry: {_frag(entry)}")
        _, name_s, params_s, _sort_s, body_s = entry.items
        if not name_s.is_atom or params_s.is_atom:
            raise ModelParseError(f"unexpected model entry: {_frag(entry)}")
        name = name_s.text.strip("|")
        if len(params_s.items) > 1:
            raise ModelParseError(f"function of arity > 1 in model: {name}")
        raw_funs[name] = (_param(params_s) if params_s.items else None, body_s)

    model = Model()
    decl_by_name = {d.name: d for d in declarations}
    for name, decl in decl_by_name.items():
        raw = raw_funs.get(name)
        if decl.sort == Sort.INT:
            model.ints[name] = 0 if raw is None else _parse_int_const(_constant(name, raw))
        elif decl.sort == Sort.BOOL:
            model.bools[name] = False if raw is None else _parse_bool_const(_constant(name, raw))
        else:
            model.funcs[name] = _parse_func_value(decl, raw, raw_funs)
    return model


def _param(params) -> str:
    """The name of the one parameter of a ``((x Int))`` list."""
    binding = None if params.is_atom or len(params.items) != 1 else params.items[0]
    if binding is None or binding.is_atom or len(binding.items) != 2 or not binding.items[0].is_atom:
        raise ModelParseError(f"unexpected parameter list: {_frag(params)}")
    return binding.items[0].text


def _constant(name: str, raw):
    param, body = raw
    if param is not None:
        raise ModelParseError(f"expected a constant value for {name}")
    return body


def _frag(sexpr) -> str:
    if sexpr.is_atom:
        return sexpr.text
    return "(" + " ".join(_frag(i) for i in sexpr.items) + ")"


def _parse_int_const(body) -> int:
    if body.is_atom:
        value = numeral(body.text, ModelParseError)
        if value is None:
            raise ModelParseError(f"not an integer constant: {body.text}")
        return value
    if len(body.items) == 2 and body.items[0].is_atom and body.items[0].text == "-":
        return -_parse_int_const(body.items[1])
    raise ModelParseError(f"not an integer constant: {_frag(body)}")


def _parse_bool_const(body) -> bool:
    if body.is_atom and body.text in ("true", "false"):
        return body.text == "true"
    raise ModelParseError(f"not a boolean constant: {_frag(body)}")


def _parse_func_value(decl: Declaration, raw, raw_funs) -> FuncValue:
    """The value of the array or function `decl` from its (parameter,
    body) definition `raw`: an ite chain over the parameter of a function,
    or an array expression, whose as-array references are entries of
    `raw_funs`.  A parameter list is there exactly for a function."""
    if raw is None:
        return FuncValue(0)
    param, body = raw
    if (param is not None) != decl.is_function:
        kind = "a unary function body" if decl.is_function else "an array value"
        raise ModelParseError(f"expected {kind} for {decl.name}")
    return _parse_ite_chain(param, body) if decl.is_function else _parse_array_expr(body, raw_funs)


def _parse_ite_chain(param: str, body) -> FuncValue:
    exceptions: dict[int, int] = {}
    while True:
        if body.is_atom or not (body.items and body.items[0].is_atom):
            return FuncValue(_parse_int_const(body), exceptions)
        head = body.items[0].text
        if head != "ite":
            return FuncValue(_parse_int_const(body), exceptions)
        if len(body.items) != 4:
            raise ModelParseError(f"unsupported function body: {_frag(body)}")
        _, cond, then, rest = body.items
        if cond.is_atom or len(cond.items) != 3 or cond.items[0].text != "=":
            raise ModelParseError(f"unsupported function body: {_frag(body)}")
        a, b = cond.items[1], cond.items[2]
        key_expr = b if (a.is_atom and a.text == param) else a
        key = _parse_int_const(key_expr)
        exceptions.setdefault(key, _parse_int_const(then))
        body = rest


def _parse_array_expr(body, raw_funs) -> FuncValue:
    if body.is_atom or not body.items:
        raise ModelParseError(f"not an array value: {_frag(body)}")
    items = body.items
    head = items[0]
    # (store <array> <index> <value>)
    if head.is_atom and head.text == "store" and len(items) == 4:
        base = _parse_array_expr(items[1], raw_funs)
        return base.with_store(_parse_int_const(items[2]), _parse_int_const(items[3]))
    # ((as const (Array Int Int)) <default>)
    if not head.is_atom and head.items and head.items[0].is_atom and head.items[0].text == "as":
        if len(items) == 2:
            return FuncValue(_parse_int_const(items[1]))
        raise ModelParseError(f"unsupported array value: {_frag(body)}")
    # (_ as-array <fname>)
    if head.is_atom and head.text == "_" and len(items) == 3 and items[1].text == "as-array":
        ref = items[2].text.strip("|")
        raw = raw_funs.get(ref)
        if raw is None or raw[0] is None:
            raise ModelParseError(f"as-array refers to unknown function {ref}")
        return _parse_ite_chain(*raw)
    # (lambda ((x Int)) <body>)
    if head.is_atom and head.text == "lambda" and len(items) == 3:
        return _parse_ite_chain(_param(items[1]), items[2])
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
    the child.

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

    # -- lifecycle ---------------------------------------------------------

    def _ensure(self) -> _ProcessHandle:
        if self._handle is None or self._handle.proc.poll() is not None:
            self._reset()
            self._handle = _ProcessHandle(self.cmd)
            self._handle.send("(set-option :print-success false)\n(set-option :produce-models true)\n(push 1)")
        return self._handle

    def _reset(self):
        self._base = ([], [])
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
        return _recheck(req, self._query(req, use_soft=False))

    def max_solve(self, req: SolverRequest) -> SolverVerdict:
        if req.soft and self._soft_supported:
            verdict = self._query(req, use_soft=True)
            rejected = verdict.reason == "unsupported" or "assert-soft" in verdict.reason
            if verdict.kind != VerdictKind.ERROR or not rejected:
                return _recheck(req, verdict)
            self._soft_supported = False
        hard_only = SolverRequest(req.declarations, req.hard, [], req.deadline)
        verdict = self._query(hard_only, use_soft=False)
        verdict.degraded = bool(req.soft)
        return _recheck(req, verdict)

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
        try:
            handle = self._ensure()
            deadline = time.monotonic() + self.timeout
            if req.deadline is not None:
                deadline = min(deadline, req.deadline)
            commands = [*self._base_commands(req), "(push 1)"]
            if use_soft:
                commands += [f"(assert-soft {print_formula(f)} :weight {weight})" for f, weight in req.soft]
            handle.send("\n".join([*commands, "(check-sat)"]))
            answer = handle.reply(deadline)
            if not answer.is_atom or answer.text == "unsupported":
                self._reset()
                return SolverVerdict(VerdictKind.ERROR, reason=_frag(answer))
            if answer.text == "unsat":
                handle.send("(pop 1)")
                return SolverVerdict(VerdictKind.UNSAT)
            if answer.text == "unknown":
                handle.send("(pop 1)")
                return SolverVerdict(VerdictKind.UNKNOWN, reason="solver answered unknown")
            if answer.text != "sat":
                self._reset()
                return SolverVerdict(VerdictKind.ERROR, reason=f"unexpected solver answer {answer.text!r}")
            handle.send("(get-model)\n(pop 1)")
            reply = handle.reply(deadline)
            return SolverVerdict(VerdictKind.SAT, model=parse_model(reply, req.declarations))
        except (EOFError, OSError) as exc:  # TimeoutError and BrokenPipeError are OSErrors
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=f"solver process failure: {exc}")
        except ModelParseError as exc:
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=str(exc))
        except SmtSyntaxError as exc:  # a reply that starts with a ")" closing nothing
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=f"unreadable solver reply: {handle.reader.locate(exc)}")


def _extends(items: list, prefix: list) -> bool:
    """Whether `prefix` is a prefix of `items`, compared by identity first."""
    return len(prefix) <= len(items) and all(a is b or a == b for a, b in zip(prefix, items))
