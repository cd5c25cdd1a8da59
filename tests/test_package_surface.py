"""The package defines only what the package itself uses.

Helpers that only tests call live in the tests (most in ``oracles.py``),
so ``src/crossflow`` keeps what its commands run.  The check is by name:
a function, method or class is used when some module of the package
names it, as a bare name or as an attribute, or lists it in ``__all__``.
Dunder methods, which Python calls itself, are exempt.  A name that is
only imported, or only named inside its own definition, is not a use.
Likewise every name a module imports must be read in that module, as a
bare name or through ``__all__``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossflow"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree: ast.AST) -> Counter[str]:
    """How often each name is read in ``tree``, as a name or an attribute
    or as a string listed in ``__all__``."""
    uses: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            uses.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return uses


def _parse(package: Path) -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(package.glob("*.py"))
    }


def unused_definitions(package: Path = PACKAGE) -> list[str]:
    """``module:line name`` of each definition of ``package`` whose name
    no module uses outside the definition itself, in file and line order."""
    trees = _parse(package)
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total[node.name] == _uses(node)[node.name]:
                unused.append((module, node.lineno, node.name))
    return [f"{module}:{line} {name}" for module, line, name in sorted(unused)]


def unused_imports(package: Path = PACKAGE) -> list[str]:
    """``module:line name`` of each name that a module of ``package``
    imports and never reads as a bare name or lists in ``__all__``, in
    file and line order.  ``__future__`` imports are exempt."""
    unused = []
    for module, tree in _parse(package).items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if isinstance(node, ast.Import):
                        name = name.split(".")[0]
                    if name not in read:
                        unused.append((module, node.lineno, name))
    return [f"{module}:{line} {name}" for module, line, name in sorted(unused)]


def test_every_definition_is_used_by_the_package():
    unused = unused_definitions()
    assert not unused, "used by no module of the package: " + ", ".join(unused)


def test_scan_flags_unused_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def recursive(): return recursive()\n"
        "class Thing:\n"
        "    def __len__(self): return 0\n"
        "    def method(self): pass\n"
        "    def used(self): pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import Thing, recursive\nThing().used()\n", encoding="utf-8"
    )
    assert unused_definitions(tmp_path) == ["a.py:3 recursive", "a.py:6 method"]


def test_every_import_is_used_by_its_module():
    unused = unused_imports()
    assert not unused, "imported and never read: " + ", ".join(unused)


def test_scan_flags_unused_imports(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import Iterator, Mapping\n"
        "from .b import helper as h, other\n"
        "__all__ = ['other']\n"
        "def f(m: Mapping) -> str:\n"
        "    return json.dumps(m)\n",
        encoding="utf-8",
    )
    assert unused_imports(tmp_path) == [
        "a.py:2 os", "a.py:4 Iterator", "a.py:5 h",
    ]
