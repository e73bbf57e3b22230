"""Module boundaries: no module reaches into another's private names or a
``PiNumber``'s stored terms, no module, ``PiNumber``'s own ring operations
included, sums exact values in a loop of its own instead of the one kernel,
no file of the package or its tests imports a name it never reads, and every
public name of the package is read somewhere in it."""

import ast
import inspect
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


def _is_zero_seed(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "zero"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "PiNumber"
    )


def _hand_rolled_sums(path: Path) -> list[str]:
    """Loops that rebind a name seeded from ``PiNumber.zero()`` with ``+``,
    ``-``, ``+=`` or ``-=``: linear combinations that bypass
    ``exact_scalars.linear_combination``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    seeded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                seeded |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_zero_seed(v)}
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign):
                names, ops = [node.target], [node.op]
            elif isinstance(node, ast.Assign):
                names = node.targets
                ops = [sub.op for sub in ast.walk(node.value) if isinstance(sub, ast.BinOp)]
            else:
                continue
            if any(isinstance(op, (ast.Add, ast.Sub)) for op in ops):
                found |= {(node.lineno, t.id) for t in names if isinstance(t, ast.Name) and t.id in seeded}
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_rolled_linear_combinations(path):
    assert _hand_rolled_sums(path) == []


def test_checker_flags_hand_rolled_sums(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(xs, ws):\n"
        "    acc = PiNumber.zero()\n"
        "    total, n = PiNumber.zero(), 0\n"
        "    for x, w in zip(xs, ws):\n"
        "        acc = acc + x * w\n"
        "        total += x\n"
        "        n = n + 1\n"
        "    while xs:\n"
        "        acc = acc - xs.pop() if n else acc\n"
        "    acc = acc * 2\n"
        "    return acc + 1, total, linear_combination(zip(xs, ws))\n"
    )
    assert _hand_rolled_sums(bad) == ["line 5: acc", "line 6: total", "line 9: acc"]


#: the ``PiNumber`` operations whose sums go through ``linear_combination``
RING_METHODS = ("__add__", "__sub__", "__rsub__", "__mul__")


def _ring_accumulations(path: Path) -> list[str]:
    """Loops, comprehensions over more than one iterable and ``sum`` calls
    inside ``PiNumber``'s ring methods: sums of terms that bypass
    ``linear_combination``.  Scaling every term by a scalar, one comprehension
    over one iterable, stays allowed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "PiNumber"):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name in RING_METHODS):
                continue
            for node in ast.walk(method):
                loop = isinstance(node, (ast.For, ast.While))
                product = (
                    isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
                    and len(node.generators) > 1
                )
                total = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                if loop or product or total:
                    found.append(f"line {node.lineno}: {method.name}")
    return found


def test_pinumber_ring_operations_sum_through_the_kernel():
    assert _ring_accumulations(PACKAGE / "exact_scalars.py") == []


def test_checker_flags_ring_accumulations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class PiNumber:\n"
        "    def __add__(self, other):\n"
        "        terms = dict(self._terms)\n"
        "        for e, c in other._terms.items():\n"
        "            terms[e] = terms.get(e, 0) + c\n"
        "        return PiNumber._wrap(terms)\n"
        "    def __sub__(self, other):\n"
        "        return PiNumber(sum((x for x in (self, -other)), PiNumber.zero()))\n"
        "    def __mul__(self, other):\n"
        "        if isinstance(other, int):\n"
        "            return PiNumber._wrap({e: c * other for e, c in self._terms.items()})\n"
        "        return PiNumber({e1 + e2: c1 * c2 for e1, c1 in self._terms.items()\n"
        "                         for e2, c2 in other._terms.items()})\n"
        "    def __neg__(self):\n"
        "        for e in self._terms:\n"
        "            pass\n"
        "class Other:\n"
        "    def __add__(self, other):\n"
        "        while other:\n"
        "            other -= 1\n"
    )
    assert _ring_accumulations(bad) == ["line 4: __add__", "line 8: __sub__", "line 12: __mul__"]


def _stored_terms_reads(paths: list[Path]) -> list[str]:
    """``file:line`` of each ``._terms`` attribute outside ``exact_scalars``:
    how a ``PiNumber`` stores its coefficients is its own business, and
    every other module reads them through ``terms`` or ``coefficient``."""
    found = []
    for path in paths:
        if path.stem == "exact_scalars":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_terms":
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_exact_scalars_reads_stored_terms():
    assert _stored_terms_reads(MODULES) == []


def test_checker_flags_stored_terms_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y):\n"
        "    t = x.terms\n"
        "    return len(x._terms) + y.value._terms[0][1]\n"
        "getattr(object(), '_terms', None)\n"
    )
    (tmp_path / "exact_scalars.py").write_text("def g(x):\n    return x._terms\n")
    assert _stored_terms_reads(sorted(tmp_path.glob("*.py"))) == ["a.py:3", "a.py:3"]


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


README = PACKAGE.parent.parent / "README.md"


def _quick_reference_imports(readme: str) -> list[str]:
    """The names the ``from angleworks import (...)`` of README's
    "Library quick reference" code block imports."""
    section = readme.split("## Library quick reference", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "angleworks"
        for alias in node.names
    ]


def test_readme_quick_reference_imports_exist():
    import angleworks

    names = _quick_reference_imports(README.read_text())
    assert "angle_table" in names  # the parse found the import list
    assert [n for n in names if not hasattr(angleworks, n)] == []


def _sibling_imports(path: Path, siblings: set[str]) -> list[tuple[int, str, bool]]:
    """(line, sibling module, at module top level) for each relative import
    of a sibling module, inside functions too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [(node.lineno, name, id(node) in top) for name in names if name in siblings]
    return found


#: (module, sibling) pairs whose import may sit inside a function, each with
#: the reason; the edge still counts towards cycles
LAZY_IMPORTS_ALLOWED = {
    # only ``verify`` runs read the suites, so a query skips their import
    ("cli", "verify"),
}


def _import_problems(paths: list[Path], lazy=frozenset()) -> list[str]:
    """Each sibling import below module top level, other than the pairs in
    ``lazy``, and one cycle of the graph of sibling imports if it has any."""
    siblings = {p.stem for p in paths}
    graph, found = {}, []
    for path in paths:
        imports = _sibling_imports(path, siblings)
        graph[path.stem] = sorted({name for _, name, _ in imports})
        found += [f"{path.name}:{line}: .{name} imported below top level"
                  for line, name, top in imports if not top and (path.stem, name) not in lazy]
    done, stack = set(), []

    def cycle_from(module: str) -> list[str]:
        stack.append(module)
        for nxt in graph[module]:
            if nxt in stack:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in done:
                cycle = cycle_from(nxt)
                if cycle:
                    return cycle
        stack.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = [] if module in done else cycle_from(module)
        if cycle:
            found.append("cycle: " + " -> ".join(cycle))
            break
    return found


def test_sibling_imports_are_acyclic_and_top_level():
    assert _import_problems(MODULES, LAZY_IMPORTS_ALLOWED) == []


def test_checker_flags_import_cycles_and_nested_imports(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text("import math\nfrom . import b\ndef f(): return b.g()\n")
    (tmp_path / "b.py").write_text("from .c import h\ndef g(): return h()\n")
    (tmp_path / "c.py").write_text(
        "from .d import k\n"
        "def h():\n"
        "    from .a import f\n"
        "    return f, k\n"
    )
    (tmp_path / "d.py").write_text("from fractions import Fraction\nk = Fraction(1)\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _import_problems(paths) == [
        "c.py:3: .a imported below top level",
        "cycle: a -> b -> c -> a",
    ]
    # an allowed lazy import is still an edge of the graph
    assert _import_problems(paths, {("c", "a")}) == ["cycle: a -> b -> c -> a"]


#: engine functions that may have ``verify`` as their only reader, each with
#: the reason it stays in its engine
VERIFY_ONLY_ALLOWED = {
    # a public wrapper of the private kernel ``_cos_F_integral``, which verify
    # may not import
    "trig_algebra.external_lB",
}
ENGINES = ("angle_engine", "polytope_engine", "series_kernel", "trig_algebra")


def _verify_only_functions(paths: list[Path], engines=ENGINES) -> list[str]:
    """``module.name`` for each public function of an engine that no module
    but ``verify`` reads, not counting the re-exports of ``__init__``: a
    second route that belongs in ``verify``."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    reads = [(stem, top, _reads(top)) for stem, tree in trees.items() if stem != "__init__"
             for top in tree.body]
    found = []
    for stem in engines:
        for node in trees[stem].body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            readers = {s for s, top, names in reads if top is not node and node.name in names}
            if readers == {"verify"}:
                found.append(f"{stem}.{node.name}")
    return sorted(found)


def test_no_engine_function_is_read_only_by_verify():
    assert _verify_only_functions(MODULES) == sorted(VERIFY_ONLY_ALLOWED)


def test_checker_flags_verify_only_functions(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import primary, second, exported\n")
    (tmp_path / "a.py").write_text(
        "def primary(): return helper()\n"
        "def helper(): return 1\n"
        "def second(): return 2\n"
        "def exported(): return 3\n"
        "def _private(): return 4\n"
        "class Check: pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import primary\nx = primary()\n")
    (tmp_path / "verify.py").write_text(
        "from . import a\nfrom .a import Check, _private, second\n"
        "y = a.primary(), second(), Check(), _private()\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert _verify_only_functions(paths, engines=("a",)) == ["a.second"]


#: the modules that may call ``angle_table``, the one entry point that takes
#: beta; every engine reads its rows at its own alpha through ``internal_row``
ANGLE_TABLE_CALLERS = {"cli", "verify"}


def _angle_table_calls(paths: list[Path]) -> list[str]:
    """``file:line`` of each call of ``angle_table``, by name or as a module
    attribute, outside ``ANGLE_TABLE_CALLERS``."""
    found = []
    for path in paths:
        if path.stem in ANGLE_TABLE_CALLERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "angle_table":
                    found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_cli_and_verify_call_angle_table():
    assert _angle_table_calls(MODULES) == []


def test_checker_flags_angle_table_calls(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import angle_engine\n"
        "from .angle_engine import angle_table, internal_row\n"
        "rows = [angle_table('beta', 4, 0), internal_row(4, 3, 0)]\n"
        "table = angle_engine.angle_table\n"
        "x = angle_engine.angle_table('betaprime', 4, 3).entries\n"
    )
    (tmp_path / "cli.py").write_text("from .angle_engine import angle_table\nangle_table('beta', 2, 0)\n")
    (tmp_path / "verify.py").write_text("from . import angle_engine\nangle_engine.angle_table('beta', 2, 0)\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _angle_table_calls(paths) == ["a.py:3", "a.py:5"]


def test_verify_options_are_the_suite_parameters():
    # ``cmd_verify`` passes each suite the options its parameters name and
    # refuses any other option the argv gives, so the optional
    # options of ``verify`` are the suites' parameters, defaults included
    from angleworks.cli import _COMMANDS
    from angleworks.verify import SUITES

    options = {(name.replace("-", "_"), default)
               for name, _, _, required, default, _ in _COMMANDS["verify"][2] if not required}
    parameters = {(name, p.default) for suite in SUITES.values()
                  for name, p in inspect.signature(suite).parameters.items()}
    assert parameters == options
