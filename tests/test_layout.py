"""Module boundaries: no module reaches into another's private names, and
no file of the package or its tests imports a name it never reads."""

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
