"""Every name a `boxsampler` module, a test module or a benchmark script
imports is used by that module, and every top-level name a `boxsampler`
module defines, and every method of its top-level classes, is read
somewhere.

No linter is available offline, so this walks each module's syntax tree.
An imported name counts as used when the module reads it anywhere or lists
it in `__all__`.  An import kept on purpose carries `# noqa: F401` on its
line, followed by the reason; a package import kept for the benchmark's
tracer, whose reason cites `bench/tracer.py`, must be an entry of the
tracer's `WRAPPED` table.  A top-level function, class or assignment
counts as read when a statement other than its own definition, in the
package, the tests or the benchmark scripts, names it: as a name, an
attribute, an imported name, or a part of a dotted-name string (the
entries of `__all__` and of the tracer's `WRAPPED` table).  A method of a
top-level class counts as read, in the same ways, when a statement other
than its own definition names it, the other methods of its class included.
The package and the benchmark scripts alone must read each of these names:
one that only the tests read belongs in the tests (`tests/oracle.py`).

The solver child, `python -m boxsampler.minisolver`, imports only the
modules its pipe uses, as each start pays for every module it imports.

A node type of `terms` declares its fields once, in `__slots__`: `_Node`
generates its `__init__`, `__eq__` and `__hash__`, so no node class body
writes these, but for the two constructors that do more than store their
arguments."""

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "boxsampler"
MODULES = sorted(SRC.glob("*.py")) + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py"))
NOQA = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """`line: name` of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    out = []
    for name, line in sorted(imported.items(), key=lambda item: item[1]):
        _, marker, reason = lines[line - 1].partition(NOQA)
        if name in used or (marker and reason.strip(" -")):
            continue
        out.append(f"{line}: {name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_all_and_reasoned_noqa():
    source = (
        "import os\n"
        "from json import dumps, loads\n"
        "from re import compile  # noqa: F401\n"
        "from re import escape  # noqa: F401 -- re-exported for callers\n"
        "from .x import (\n"
        "    exported,\n"
        "    unread,\n"
        ")\n"
        "__all__ = ['exported']\n"
        "print(loads(os.sep))\n"
    )
    assert unused_imports(source) == ["2: dumps", "3: compile", "7: unread"]


TRACER = "bench/tracer.py"


def unwrapped_tracer_imports(source: str, module: str, wrapped: set[tuple[str, str]]) -> list[str]:
    """`line: name` of every import of `module` whose `# noqa: F401` reason
    cites the tracer, but whose (module, name) is not in `wrapped`."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else []:
            name = alias.asname or alias.name.split(".")[0]
            _, marker, reason = lines[alias.lineno - 1].partition(NOQA)
            if marker and TRACER in reason and (module, name) not in wrapped:
                out.append(f"{alias.lineno}: {name}")
    return out


def test_every_import_kept_for_the_tracer_is_wrapped():
    table = next(
        stmt.value
        for stmt in ast.parse((ROOT / TRACER).read_text()).body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    )
    wrapped = {(module, path) for module, path, _ in ast.literal_eval(table)}
    for path in sorted(SRC.glob("*.py")):
        assert unwrapped_tracer_imports(path.read_text(), f"boxsampler.{path.stem}", wrapped) == [], path.name


def test_checker_flags_a_tracer_import_the_tracer_does_not_wrap():
    source = (
        "from .terms import (\n"
        "    eval_formula,  # noqa: F401 -- bench/tracer.py wraps sampler.eval_formula\n"
        "    to_nnf,  # noqa: F401 -- bench/tracer.py wraps sampler.to_nnf\n"
        "    preprocess,  # noqa: F401 -- re-exported for callers\n"
        ")\n"
    )
    wrapped = {("boxsampler.sampler", "eval_formula"), ("boxsampler.cli", "to_nnf")}
    assert unwrapped_tracer_imports(source, "boxsampler.sampler", wrapped) == ["3: to_nnf"]


_DOTTED_NAME = re.compile(r"[A-Za-z_][\w.]*")


def _names_read(stmt: ast.stmt) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED_NAME.fullmatch(node.value):
            out.update(node.value.split("."))
    return out


def _names_defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _units(stmt: ast.stmt) -> list[tuple[int | None, list[ast.AST]]]:
    """The parts of a top-level statement whose reads count apart: the
    whole statement, or for a class each statement of its body (numbered)
    and the rest of its header (None)."""
    if not isinstance(stmt, ast.ClassDef):
        return [(None, [stmt])]
    return [*enumerate([b] for b in stmt.body), (None, [*stmt.decorator_list, *stmt.bases, *stmt.keywords])]


def dead_names(sources: dict[str, str], defining: list[str]) -> list[str]:
    """`module: name` of every top-level function, class or assignment of
    the `defining` modules that no top-level statement of `sources` other
    than its own definition reads, and `module: Class.method` of every
    method of their top-level classes that no statement other than its own
    definition reads; dunders are allowed."""
    readers: dict[str, set] = defaultdict(set)  # name -> {(module, statement index, class body index)}
    defined = []  # (module, statement index, class body index or None, reported name, name)
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            for j, nodes in _units(stmt):
                for node in nodes:
                    for name in _names_read(node):
                        readers[name].add((module, i, j))
            if module not in defining:
                continue
            defined += [(module, i, None, name, name) for name in _names_defined(stmt)]
            if isinstance(stmt, ast.ClassDef):
                defined += [
                    (module, i, j, f"{stmt.name}.{m.name}", m.name)
                    for j, m in enumerate(stmt.body)
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [
        f"{module}: {shown}"
        for module, i, j, shown, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and all(r[:2] == (module, i) and j in (None, r[2]) for r in readers[name])
    ]


def test_every_top_level_name_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES}
    assert dead_names(sources, [str(p.relative_to(ROOT)) for p in MODULES if p.parent == SRC]) == []


def test_no_package_name_is_read_by_the_tests_alone():
    program = [p for p in MODULES if p.parent != ROOT / "tests"]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in program}
    assert dead_names(sources, [str(p.relative_to(ROOT)) for p in program if p.parent == SRC]) == []


def test_checker_flags_dead_names():
    sources = {
        "a.py": (
            "__version__ = '1'\n"
            "def imported(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def in_a_table(): pass\n"
            "TABLE, unread = {}, 1\n"
            "class Attribute: pass\n"
            "limit: int = 3\n"
            "def dead(): pass\n"
        ),
        "b.py": (
            "from a import imported\n"
            "WRAPPED = ('a.in_a_table',)\n"
            "def use(): return b.Attribute, TABLE, 'not a name: dead'\n"
            "def limit(): pass\n"
        ),
    }
    assert dead_names(sources, ["a.py"]) == ["a.py: recursive", "a.py: unread", "a.py: limit", "a.py: dead"]


def test_checker_flags_dead_methods():
    sources = {
        "a.py": (
            "class Box:\n"
            "    def __init__(self): pass\n"
            "    def used(self): return self.helper()\n"
            "    def helper(self): return 1\n"
            "    def recursive(self): return self.recursive()\n"
            "    @property\n"
            "    def width(self): return 0\n"
            "    def in_a_table(self): pass\n"
            "    def dead(self): pass\n"
            "class Mixin: pass\n"
            "class Sub(Mixin): pass\n"
        ),
        "b.py": (
            "from a import Box, Sub\n"
            "WRAPPED = ('a.Box.in_a_table',)\n"
            "def use(box): return box.used(), box.width, 'not a name: dead'\n"
        ),
    }
    assert dead_names(sources, ["a.py"]) == ["a.py: Box.recursive", "a.py: Box.dead"]


def test_solver_child_imports_only_the_modules_of_the_pipe():
    # the process client imports subprocess (and with it selectors and
    # signal) and shlex itself, so the child does not load them
    script = (
        "import sys; before = set(sys.modules); import boxsampler.minisolver\n"
        "new = set(sys.modules) - before\n"
        "print((sorted(m for m in new if m.startswith('boxsampler')),"
        " sorted(new & {'subprocess', 'selectors', 'signal', 'shlex'})))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out) == (
        [
            "boxsampler",
            "boxsampler.compiled",
            "boxsampler.errors",
            "boxsampler.minisolver",
            "boxsampler.smtlib",
            "boxsampler.solver",
            "boxsampler.terms",
        ],
        [],
    )


def test_solver_child_loads_no_dataclasses_inspect_or_typing():
    # -S keeps the site's .pth files out, which may import typing themselves
    script = "import sys, boxsampler.minisolver; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out) == []


def hand_written_node_methods(source: str) -> list[str]:
    """`Class.method` of every `__init__`, `__eq__` or `__hash__` that the
    body of `_Node` or of a class derived from it (in the same module)
    defines."""
    nodes, out = {"_Node"}, []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        if stmt.name != "_Node" and not any(isinstance(b, ast.Name) and b.id in nodes for b in stmt.bases):
            continue
        nodes.add(stmt.name)
        out += [
            f"{stmt.name}.{m.name}"
            for m in stmt.body
            if isinstance(m, ast.FunctionDef) and m.name in ("__init__", "__eq__", "__hash__")
        ]
    return out


def test_node_types_declare_their_fields_once():
    # ArrayVar has a default; _Variadic flattens the children of its own type
    assert hand_written_node_methods((SRC / "terms.py").read_text()) == ["_Variadic.__init__", "ArrayVar.__init__"]


def test_checker_flags_hand_written_node_methods():
    source = (
        "class _Record:\n"
        "    def __eq__(self, other): pass\n"
        "class _Node(_Record): pass\n"
        "class Leaf(_Node):\n"
        "    def __init__(self): pass\n"
        "    def __hash__(self): pass\n"
        "    def other(self): pass\n"
        "class Branch(Leaf):\n"
        "    def __eq__(self, other): pass\n"
        "class Model(_Record):\n"
        "    def __init__(self): pass\n"
    )
    assert hand_written_node_methods(source) == ["Leaf.__init__", "Leaf.__hash__", "Branch.__eq__"]
