"""Every name a `boxsampler` module, a test module or a benchmark script
imports is used by that module, and every top-level name a `boxsampler`
module defines is read somewhere.

No linter is available offline, so this walks each module's syntax tree.
An imported name counts as used when the module reads it anywhere or lists
it in `__all__`.  An import kept on purpose carries `# noqa: F401` on its
line, followed by the reason.  A top-level function, class or assignment
counts as read when a statement other than its own definition, in the
package, the tests or the benchmark scripts, names it: as a name, an
attribute, an imported name, or a part of a dotted-name string (the
entries of `__all__` and of the tracer's `WRAPPED` table).

The solver child, `python -m boxsampler.minisolver`, imports only the
modules its pipe uses, as each start pays for every module it imports."""

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


def dead_names(sources: dict[str, str], defining: list[str]) -> list[str]:
    """`module: name` of every top-level function, class or assignment of
    the `defining` modules that no top-level statement of `sources` other
    than its own definition reads; dunders are allowed."""
    readers: dict[str, set] = defaultdict(set)  # name -> {(module, statement index)}
    defined = []
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            for name in _names_read(stmt):
                readers[name].add((module, i))
            if module in defining:
                defined += [(module, i, name) for name in _names_defined(stmt)]
    return [
        f"{module}: {name}"
        for module, i, name in defined
        if not (name.startswith("__") and name.endswith("__")) and not readers[name] - {(module, i)}
    ]


def test_every_top_level_name_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES}
    assert dead_names(sources, [str(p.relative_to(ROOT)) for p in MODULES if p.parent == SRC]) == []


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


def test_solver_child_imports_only_the_modules_of_the_pipe():
    script = "import boxsampler.minisolver, sys; print(sorted(m for m in sys.modules if m.startswith('boxsampler')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out) == [
        "boxsampler",
        "boxsampler.compiled",
        "boxsampler.errors",
        "boxsampler.minisolver",
        "boxsampler.smtlib",
        "boxsampler.solver",
        "boxsampler.terms",
    ]
