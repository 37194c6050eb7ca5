"""Every name a `boxsampler` module, a test module or a benchmark script
imports is used by that module.

No linter is available offline, so this walks each module's syntax tree.
An imported name counts as used when the module reads it anywhere or lists
it in `__all__`.  An import kept on purpose carries `# noqa: F401` on its
line, followed by the reason."""

import ast
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
