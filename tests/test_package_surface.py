"""The package defines only what the package itself uses.

Helpers that only tests call live in the tests (most in ``oracles.py``),
so ``src/crossflow`` keeps what its commands run.  The check is by name:
a function, method or class is used when some module of the package
names it, as a bare name or as an attribute, or lists it in ``__all__``.
Dunder methods, which Python calls itself, are exempt.  A name that is
only imported, or only named inside its own definition, is not a use.
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


def unused_definitions(package: Path = PACKAGE) -> list[str]:
    """``module:line name`` of each definition of ``package`` whose name
    no module uses outside the definition itself, in file and line order."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(package.glob("*.py"))
    }
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
