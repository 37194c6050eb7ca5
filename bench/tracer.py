"""Span tracing from outside the package.

`Tracer.install()` replaces the public entry points of each layer, as their
callers bind them, with wrappers that record one span per call: name,
start, end and the span that was open when the call began.  Spans are kept
in memory in flat arrays and summarised (self time per name) when a traced
run ends; `write()` dumps them as tab-separated text.  `uninstall()` puts
every original back.  No source file of the package changes.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (module, attribute or Class.method, span name).  Layers are named after
# the package modules; a span name is "<layer>.<what>".
WRAPPED = (
    ("boxsampler.smtlib", "parse_problem", "smtlib.parse"),
    ("boxsampler.cli", "parse_problem", "smtlib.parse"),
    ("boxsampler.sampler", "preprocess", "terms.preprocess"),
    ("boxsampler.sampler", "to_nnf", "terms.nnf"),
    ("boxsampler.cli", "preprocess", "terms.preprocess"),
    ("boxsampler.cli", "to_nnf", "terms.nnf"),
    ("boxsampler.minisolver", "LocalSolverClient.solve", "solver.query"),
    ("boxsampler.minisolver", "LocalSolverClient.max_solve", "solver.query"),
    ("boxsampler.solver", "ProcessSolverClient.solve", "solver.query"),
    ("boxsampler.solver", "ProcessSolverClient.max_solve", "solver.query"),
    ("boxsampler.minisolver", "BruteForceEngine.check", "minisolver.check"),
    ("boxsampler.solver", "print_formula", "smtlib.print"),
    ("boxsampler.solver", "print_declaration", "smtlib.print"),
    ("boxsampler.solver", "parse_model", "solver.parse_model"),
    ("boxsampler.solver", "eval_formula", "terms.recheck"),
    ("boxsampler.sampler", "neg_to_formula", "intervals.neg"),
    ("boxsampler.sampler", "contains", "intervals.contains"),
    ("boxsampler.sampler", "compute_implicant", "implicant.compute"),
    ("boxsampler.sampler", "strengthen_mod.product_to_intervals", "strengthen.box"),
    ("boxsampler.arrays", "_int_product_to_intervals", "strengthen.box"),
    ("boxsampler.sampler", "arrays_mod.product_to_intervals", "arrays.pipeline"),
    ("boxsampler.sampler", "exploit_epoch", "sampler.epoch"),
    ("boxsampler.sampler", "sample_intervals", "sampler.draw"),
    ("boxsampler.sampler", "sample_intervals_arrays", "sampler.draw"),
    ("boxsampler.sampler", "restrict_to_problem", "sampler.restrict"),
    ("boxsampler.sampler", "eval_formula", "terms.verify"),
    ("boxsampler.sampler", "canonical_assignment", "sampler.canon"),
    ("boxsampler.sampler", "DedupSet.add", "sampler.dedup"),
    ("boxsampler.cli", "coverage_mod.record_sample", "coverage.record"),
    ("boxsampler.cli", "coverage_mod.write_bitmap", "coverage.write"),
    ("boxsampler.cli", "sample_to_json", "cli.emit"),
    ("boxsampler.cli", "to_json_obj", "cli.emit"),
    ("boxsampler.cli", "json.dumps", "cli.emit"),
)


def _resolve(module: str, path: str):
    """The object that owns the last attribute of `path`, and that name."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder.  Span i occupies slots 4i..4i+3 of `spans`:
    name id, parent span index (-1 at top level), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.stack: list[int] = []
        self.notes: dict[str, list] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, note=None):
        """Wrap `fn` so that each call records a span; `note(args, result)`
        may store facts about the call in `self.notes`."""
        if name not in self.names:
            self.names.append(name)
        nid = float(self.names.index(name))
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans) // 4
            spans.extend((nid, stack[-1] if stack else -1.0, perf_counter(), 0.0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 3] = perf_counter()
                stack.pop()
            if note is not None:
                note(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, notes: dict | None = None) -> None:
        notes = notes or {}
        for module, path, name in WRAPPED:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if path == "json.dumps":
                # `cli` binds the json module itself: give it a view of the
                # module whose `dumps` is wrapped, leaving json untouched.
                module_obj = importlib.import_module(module)
                self._saved[-1] = (module_obj, "json", module_obj.json)
                module_obj.json = _ModuleView(module_obj.json, dumps=self.span(name, original))
                continue
            setattr(owner, attr, self.span(name, original, notes.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        del self.spans[:]
        self.stack.clear()
        self.notes.clear()

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds, self seconds, and
        the inclusive seconds of top-level spans."""
        s = self.spans
        n = len(s) // 4
        child_time = [0.0] * n
        for i in range(n):
            parent = int(s[4 * i + 1])
            if parent >= 0:
                child_time[parent] += s[4 * i + 3] - s[4 * i + 2]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0} for name in self.names}
        for i in range(n):
            dur = s[4 * i + 3] - s[4 * i + 2]
            row = out[self.names[int(s[4 * i])]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[i]
            if s[4 * i + 1] < 0:
                row["top_s"] += dur
        return out

    def durations(self, name: str) -> list[float]:
        nid = float(self.names.index(name)) if name in self.names else -2.0
        s = self.spans
        return [s[i + 3] - s[i + 2] for i in range(0, len(s), 4) if s[i] == nid]

    def write(self, path: str, origin: float) -> None:
        """Dump spans as `name parent start_us end_us`, times relative to
        `origin`."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_us\tend_us\n")
            for i in range(0, len(s), 4):
                fh.write(
                    f"{self.names[int(s[i])]}\t{int(s[i + 1])}\t"
                    f"{(s[i + 2] - origin) * 1e6:.1f}\t{(s[i + 3] - origin) * 1e6:.1f}\n"
                )


class _ModuleView:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)
