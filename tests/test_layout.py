"""Module boundaries: no module reaches into another's private names, no
file of the package or its tests imports a name it never reads, and every
public name of the package is read somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "angleworks"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {p.stem for p in MODULES}
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    module_aliases = set()  # names bound to a sibling module in this file
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import x
                module_aliases.update(a.asname or a.name for a in node.names)
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and _is_private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert _violations(path) == []


def test_checker_flags_private_access(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import quadrature\n"
        "from .angle_engine import _bJ_row, angle_table\n"
        "x = quadrature._c_beta_float(1.0) + quadrature.cosh_kernel\n"
    )
    assert _violations(bad) == [
        "line 2: from .angle_engine import _bJ_row",
        "line 3: quadrature._c_beta_float",
    ]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []  # (line, bound name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in read]


# the package __init__ imports only to re-export
@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"] + TESTS,
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_checker_flags_unused_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return np.zeros(1), pi\n"
    )
    assert _unused_imports(bad) == ["line 2: os", "line 4: tau", "line 6: dumps"]


def _public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The public top-level functions, classes and constants of a module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if not name.startswith("_")]


def _reads(node: ast.AST) -> set[str]:
    """Names read under ``node``: loads, attributes and ``from`` imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _unused_public_names(paths: list[Path]) -> list[str]:
    """``module.name`` for each public definition that no module reads
    outside that definition itself; a re-export by ``__init__`` is a read."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    reads = [(top, _reads(top)) for tree in trees.values() for top in tree.body]
    unused = []
    for stem, tree in trees.items():
        for name, node in _public_definitions(tree):
            if not any(name in names for top, names in reads if top is not node):
                unused.append(f"{stem}.{name}")
    return sorted(unused)


def test_every_public_name_is_read():
    assert _unused_public_names(MODULES) == []


def test_checker_flags_unused_public_names(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def exported(): return LIMIT\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def called(): return 1\n"
        "def _private(): return 2\n"
        "class Dead: pass\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nprint(a.called())\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unused_public_names(paths) == ["a.Dead", "a.UNUSED", "a.recursive"]
