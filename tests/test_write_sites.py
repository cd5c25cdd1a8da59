"""Every file the package writes goes through one writer.

``crossflow.trace.write_output``, which takes a whole text or its pieces, is
the writer: it rewrites a file over its old bytes and cuts any stale tail.  A module that opened a file for writing
in another way would bring back truncate-on-open and its cost, so the
package is scanned for such calls: the builtin ``open`` or a ``.open``
method with a mode holding ``w``, ``a``, ``x`` or ``+`` (or a mode that is
not a string literal), ``os.open`` with flags other than a bare
``os.O_RDONLY`` (a read, like ``open(file, 'rb')``), and the
``.write_text`` and ``.write_bytes`` methods.  Only the body of the
writer may make them.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossflow"
WRITER = frozenset({("trace.py", "write_output")})
WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _arg(call: ast.Call, position: int, name: str) -> ast.expr | None:
    """The argument ``name`` of ``call``, at ``position`` or by keyword."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return call.args[position] if len(call.args) > position else None


def _is_os_attr(node: ast.expr | None, attr: str) -> bool:
    """Whether ``node`` is the expression ``os.<attr>``."""
    return (
        isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    )


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in WRITE_METHODS:
            return True
        if func.attr != "open":
            return False
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return not _is_os_attr(_arg(call, 1, "flags"), "O_RDONLY")
        mode = _arg(call, 0, "mode")  # Path.open(mode)
    elif isinstance(func, ast.Name) and func.id == "open":
        mode = _arg(call, 1, "mode")  # open(file, mode)
    else:
        return False
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def write_sites(package: Path = PACKAGE) -> list[str]:
    """``module:line`` of each call in ``package`` that writes a file
    other than inside the writer, in file and line order."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in WRITER:
                exempt.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in exempt and _writes(node):
                found.append((path.name, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_package_writes_only_through_the_writer():
    sites = write_sites()
    assert not sites, (
        "writes a file other than through write_output: "
        + ", ".join(sites)
    )


def test_scan_flags_every_kind_of_write(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "from pathlib import Path\n"
        "open('f', 'w')\n"
        "open('f', mode='a', encoding='utf-8')\n"
        "open('f', 'rb+')\n"
        "open('f', MODE)\n"
        "Path('f').open('x')\n"
        "Path('f').write_text('t')\n"
        "Path('f').write_bytes(b'')\n"
        "os.open('f', os.O_WRONLY | os.O_CREAT)\n"
        "os.open('f', os.O_RDWR)\n"
        "os.open('f', flags=os.O_RDONLY | os.O_TRUNC)\n"
        "os.open('f', FLAGS)\n"
        "os.open('f')\n"
        "def write_output(path):\n"
        "    return open(path, 'w')\n"
        "open('f')\n"
        "open('f', 'rb', buffering=0)\n"
        "Path('f').open()\n"
        "Path('f').read_text()\n"
        "os.open('f', os.O_RDONLY)\n"
        "os.open('f', flags=os.O_RDONLY)\n",
        encoding="utf-8",
    )
    (tmp_path / "trace.py").write_text(
        "import os\n"
        "def open_output(path):  # not the writer: its two opens are flagged\n"
        "    return open(os.open(path, os.O_WRONLY | os.O_CREAT), 'w')\n"
        "def write_output(path, data):\n"
        "    os.write(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), data)\n"
        "def read_text(path):\n"
        "    return os.read(os.open(path, os.O_RDONLY), 100)\n"
        "def other(path):\n"
        "    return open(path, 'w')\n"
        "def read_for_update(path):\n"
        "    return os.open(path, os.O_RDWR)\n",
        encoding="utf-8",
    )
    assert write_sites(tmp_path) == [
        "a.py:3", "a.py:4", "a.py:5", "a.py:6", "a.py:7", "a.py:8", "a.py:9",
        "a.py:10", "a.py:11", "a.py:12", "a.py:13", "a.py:14", "a.py:16",
        "trace.py:3", "trace.py:3", "trace.py:9", "trace.py:11",
    ]
