"""External SMT solver access: Solve and MAX-Solve over pipes.

The process client speaks SMT-LIB v2 text with one persistent child
process, scoping every query in push/pop.  Soft constraints use the
assert-soft convention; when the configured solver rejects that syntax the
query silently degrades to a plain solve and the verdict is flagged.  Every
satisfiable answer is re-checked against the hard constraints with the
internal evaluator before being returned.

Replies are read with the one SMT-LIB reader, :func:`smtlib.read_sexpr`:
it tells when the lines of an error or a model make a complete reply, which
is framed once if it has arrived whole, and :func:`parse_model` reads the
model with it.  When the solver closes its output, the error names its exit
status.
"""

from __future__ import annotations

import shlex
import subprocess
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from queue import Empty, Queue

from .errors import ModelParseError, SmtSyntaxError
from .smtlib import Declaration, print_declaration, print_formula, read_sexpr, read_sexprs
from .terms import (
    Formula,
    FuncValue,
    Model,
    Sort,
    eval_formula,
)


@dataclass
class SolverRequest:
    declarations: list[Declaration]
    hard: list[Formula]
    soft: list[tuple[Formula, int]] = field(default_factory=list)


class VerdictKind(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"
    ERROR = "error"


@dataclass
class SolverVerdict:
    kind: VerdictKind
    model: Model | None = None
    reason: str = ""
    degraded: bool = False  # soft constraints were dropped

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


def parse_model(text: str, declarations: list[Declaration]) -> Model:
    """Parse a get-model response into the finite model representation.

    Accepts the `(model ...)` and bare `((define-fun ...))` wrappers, integer
    constants in `(- k)` form, constant arrays with store chains, as-array
    references, and ite-chains over the function argument."""
    try:
        exprs = read_sexprs(text)
    except Exception as exc:
        raise ModelParseError(f"unreadable model output: {exc}") from None
    if len(exprs) != 1 or exprs[0].is_atom:
        raise ModelParseError(f"expected one parenthesized model, got {text[:80]!r}")
    items = exprs[0].items
    if items and items[0].is_atom and items[0].text == "model":
        items = items[1:]

    raw_funs: dict[str, tuple[bool, object]] = {}  # name -> (has_param, body sexpr)
    for entry in items:
        if entry.is_atom or len(entry.items) != 5 or entry.items[0].text != "define-fun":
            raise ModelParseError(f"unexpected model entry: {_frag(entry)}")
        _, name_s, params_s, _sort_s, body_s = entry.items
        if not name_s.is_atom or params_s.is_atom:
            raise ModelParseError(f"unexpected model entry: {_frag(entry)}")
        name = name_s.text.strip("|")
        if len(params_s.items) == 0:
            raw_funs[name] = (False, body_s)
        elif len(params_s.items) == 1:
            raw_funs[name] = (True, (params_s, body_s))
        else:
            raise ModelParseError(f"function of arity > 1 in model: {name}")

    model = Model()
    decl_by_name = {d.name: d for d in declarations}
    for name, decl in decl_by_name.items():
        raw = raw_funs.get(name)
        if decl.is_function:
            model.funcs[name] = _parse_fun_value(name, raw, raw_funs)
        elif decl.sort == Sort.INT:
            model.ints[name] = 0 if raw is None else _parse_int_const(raw[1])
        elif decl.sort == Sort.BOOL:
            model.bools[name] = False if raw is None else _parse_bool_const(raw[1])
        else:
            model.funcs[name] = _parse_array_value(name, raw, raw_funs)
    return model


def _frag(sexpr) -> str:
    if sexpr.is_atom:
        return sexpr.text
    return "(" + " ".join(_frag(i) for i in sexpr.items) + ")"


def _parse_int_const(body) -> int:
    if body.is_atom:
        t = body.text
        if t.isdigit() or (t.startswith("-") and t[1:].isdigit()):
            return int(t)
        raise ModelParseError(f"not an integer constant: {t}")
    if len(body.items) == 2 and body.items[0].is_atom and body.items[0].text == "-":
        return -_parse_int_const(body.items[1])
    raise ModelParseError(f"not an integer constant: {_frag(body)}")


def _parse_bool_const(body) -> bool:
    if body.is_atom and body.text in ("true", "false"):
        return body.text == "true"
    raise ModelParseError(f"not a boolean constant: {_frag(body)}")


def _parse_fun_value(name, raw, raw_funs) -> FuncValue:
    if raw is None:
        return FuncValue(0)
    if not raw[0]:
        raise ModelParseError(f"expected a unary function body for {name}")
    params_s, body_s = raw[1]
    param = params_s.items[0].items[0].text
    return _parse_ite_chain(param, body_s)


def _parse_ite_chain(param: str, body) -> FuncValue:
    exceptions: dict[int, int] = {}
    while True:
        if body.is_atom or not (body.items and body.items[0].is_atom):
            return FuncValue(_parse_int_const(body), exceptions)
        head = body.items[0].text
        if head != "ite":
            return FuncValue(_parse_int_const(body), exceptions)
        cond, then, rest = body.items[1], body.items[2], body.items[3]
        if cond.is_atom or len(cond.items) != 3 or cond.items[0].text != "=":
            raise ModelParseError(f"unsupported function body: {_frag(body)}")
        a, b = cond.items[1], cond.items[2]
        key_expr = b if (a.is_atom and a.text == param) else a
        key = _parse_int_const(key_expr)
        exceptions.setdefault(key, _parse_int_const(then))
        body = rest


def _parse_array_value(name, raw, raw_funs) -> FuncValue:
    if raw is None:
        return FuncValue(0)
    if raw[0]:
        raise ModelParseError(f"expected an array value for {name}")
    return _parse_array_expr(raw[1], raw_funs)


def _parse_array_expr(body, raw_funs) -> FuncValue:
    if body.is_atom:
        raise ModelParseError(f"not an array value: {body.text}")
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
        if raw is None or not raw[0]:
            raise ModelParseError(f"as-array refers to unknown function {ref}")
        params_s, body_s = raw[1]
        return _parse_ite_chain(params_s.items[0].items[0].text, body_s)
    # (lambda ((x Int)) <body>)
    if head.is_atom and head.text == "lambda" and len(items) == 3:
        return _parse_ite_chain(items[1].items[0].items[0].text, items[2])
    raise ModelParseError(f"unsupported array value: {_frag(body)}")


# ---------------------------------------------------------------------------
# Process adapter


class _ProcessHandle:
    """Child process with a line-reader thread for timeout-safe reads."""

    def __init__(self, cmd: list[str]):
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        self.lines: Queue[str | None] = Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self):
        try:
            for line in self.proc.stdout:
                self.lines.put(line.rstrip("\n"))
        except ValueError:
            pass
        self.lines.put(None)

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def read_line(self, deadline: float) -> str:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("solver response timed out")
            try:
                line = self.lines.get(timeout=min(remaining, 0.5))
            except Empty:
                continue
            if line is None:
                try:  # wait for the exit a second at most, and not past the deadline
                    wait = max(0.0, min(1.0, deadline - time.monotonic()))
                    status = f"exit status {self.proc.wait(timeout=wait)}"
                except subprocess.TimeoutExpired:
                    status = "still running"
                raise EOFError(f"solver closed its output ({status})")
            if line.strip():
                return line

    def read_balanced(self, first: str, deadline: float) -> str:
        """The first s-expression of `first` and the lines after it.  Each
        try takes every line already queued, so a reply that has arrived
        whole is read once; what follows it is dropped, as nothing follows
        a reply the client waits for."""
        lines = [first]
        while True:
            while not self.lines.empty():
                line = self.lines.get_nowait()
                if line is None:  # the end of output, for read_line to report
                    self.lines.put(None)
                    break
                lines.append(line)
            text = "\n".join(lines)
            if (read := read_sexpr(text)) is not None:
                return text[: read[1]]
            lines.append(self.read_line(deadline))

    def kill(self):
        try:
            self.proc.kill()
        except Exception:
            pass


class ProcessSolverClient(SolverClient):
    """Drives an external solver (default `z3 -in`) over standard input and
    output, one persistent process per sampler run."""

    def __init__(self, cmd: str = "z3 -in", timeout: float = 60.0):
        self.cmd = shlex.split(cmd)
        self.timeout = timeout
        self._handle: _ProcessHandle | None = None
        self._soft_supported: bool | None = None

    # -- lifecycle ---------------------------------------------------------

    def _ensure(self) -> _ProcessHandle:
        if self._handle is None or self._handle.proc.poll() is not None:
            self._handle = _ProcessHandle(self.cmd)
            self._handle.send("(set-option :print-success false)")
            self._handle.send("(set-option :produce-models true)")
        return self._handle

    def _reset(self):
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
        if req.soft and self._soft_probe():
            verdict = self._query(req, use_soft=True)
            if verdict.kind != VerdictKind.ERROR or "assert-soft" not in verdict.reason:
                return _recheck(req, verdict)
            self._soft_supported = False
        hard_only = SolverRequest(req.declarations, req.hard, [])
        verdict = self._query(hard_only, use_soft=False)
        verdict.degraded = bool(req.soft)
        return _recheck(req, verdict)

    def _soft_probe(self) -> bool:
        if self._soft_supported is None:
            try:
                handle = self._ensure()
                deadline = time.monotonic() + min(self.timeout, 10.0)
                handle.send("(push 1)")
                handle.send("(assert-soft true :weight 1)")
                handle.send("(check-sat)")
                answer = handle.read_line(deadline)
                handle.send("(pop 1)")
                self._soft_supported = answer.strip() == "sat"
                if not self._soft_supported:
                    self._reset()
            except Exception:
                self._soft_supported = False
                self._reset()
        return self._soft_supported

    def _query(self, req: SolverRequest, use_soft: bool) -> SolverVerdict:
        try:
            handle = self._ensure()
            deadline = time.monotonic() + self.timeout
            handle.send("(push 1)")
            for d in req.declarations:
                handle.send(print_declaration(d))
            for f in req.hard:
                handle.send(f"(assert {print_formula(f)})")
            if use_soft:
                for f, weight in req.soft:
                    handle.send(f"(assert-soft {print_formula(f)} :weight {weight})")
            handle.send("(check-sat)")
            answer = handle.read_line(deadline).strip()
            if answer.startswith("(error"):
                full = handle.read_balanced(answer, deadline)
                self._reset()
                return SolverVerdict(VerdictKind.ERROR, reason=full)
            if answer == "unsat":
                handle.send("(pop 1)")
                return SolverVerdict(VerdictKind.UNSAT)
            if answer == "unknown":
                handle.send("(pop 1)")
                return SolverVerdict(VerdictKind.UNKNOWN, reason="solver answered unknown")
            if answer != "sat":
                self._reset()
                return SolverVerdict(VerdictKind.ERROR, reason=f"unexpected solver answer {answer!r}")
            handle.send("(get-model)")
            first = handle.read_line(deadline)
            text = handle.read_balanced(first, deadline)
            handle.send("(pop 1)")
            model = parse_model(text, req.declarations)
            return SolverVerdict(VerdictKind.SAT, model=model)
        except (TimeoutError, EOFError, BrokenPipeError, OSError) as exc:
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=f"solver process failure: {exc}")
        except ModelParseError as exc:
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=str(exc))
        except SmtSyntaxError as exc:  # a reply that starts with a ")" closing nothing
            self._reset()
            return SolverVerdict(VerdictKind.ERROR, reason=f"unreadable solver reply: {exc}")
