"""No module in ``src/repro`` or ``tests`` imports a name it never reads.

A stale import hides which modules really depend on which, and keeps
a dependency alive after its last use is gone.  The scan is the
standard library's ``ast``: an imported name counts as read when a
``Name`` node anywhere in the module loads it, when the module lists it
in ``__all__``, or when its import line carries ``# noqa: F401``.
``__init__.py`` files are skipped, since their imports are the
package's re-exports."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/repro", "tests")


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` of every name ``source`` imports and never
    reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in ln
               for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_scan_sees_reads_exports_and_noqa():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "import xml.dom\n"
        "__all__ = ['loads']\n"
        "print(xml.dom, os.sep)\n"
    )
    assert unused_imports(source) == [(3, "np"), (4, "dumps")]


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            source = path.read_text(encoding="utf-8")
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(source)]
    assert not found, "imported and never read:\n" + "\n".join(found)
