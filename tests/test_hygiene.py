"""Source hygiene, checked on the ``citykit`` sources with ``ast``:

- every name a module imports is read somewhere in it, so no module, not
  even a package ``__init__.py``, re-exports a name: each is imported from
  the module that defines it.
- a module reads another object's private attribute (``obj._name``) only if
  that module owns the name: it assigns ``self._name`` or ``cls._name``, or it
  defines ``_name`` itself.
- every attribute a class assigns on ``self`` is read somewhere under
  ``src/``, ``tests/`` or ``perfbench/``: as an attribute load (on any
  object), or by ``getattr``/``hasattr`` with the name as a literal.
- every method and property a class defines is read somewhere under
  ``src/``, ``tests/`` or ``perfbench/``: as an attribute load, by
  ``getattr``/``hasattr`` with the name as a literal. Dunders are exempt.
- every function and class a module defines at its top level is read
  somewhere under ``src/``, ``tests/`` or ``perfbench/``: as a name, as an
  attribute load (``gtfs.parse_feed``), by ``getattr``/``hasattr`` with the
  name as a literal, or as the original name of an import bound to another
  (``from m import f as g``).
- ``tests/oracles.py`` imports from ``citykit`` only inputs and data types,
  never code that computes an answer it checks.
- every top-level module imported under ``tests/`` and ``perfbench/tests/``
  is in the standard library, is ``citykit`` or a module of the test and
  benchmark directories, or is declared in ``pyproject.toml``'s
  ``dependencies`` or ``test`` extra, so ``pip install .[test]`` can run the
  suite.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "citykit"


def unread_imports(path: Path) -> list[str]:
    """Names bound by an import in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``from m import a as b`` binds ``b``
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.name
    # the base of an attribute (``np`` in ``np.asarray``) is itself an ast.Name
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for bound, name in imported.items() if bound not in read)


def test_every_imported_name_is_read():
    unread = [f"{path.relative_to(SRC)}: {name}"
              for path in sorted(SRC.rglob("*.py"))
              for name in unread_imports(path)]
    assert unread == []


def _on_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")


def foreign_private_reads(path: Path) -> list[str]:
    """``line: obj._name`` for each private attribute ``path`` reads off an
    object other than ``self`` or ``cls`` without owning the name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owned.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            owned.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and _on_self(node):
            owned.add(node.attr)
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.endswith("__")  # not dunders
            and node.attr not in owned and not _on_self(node)]


def test_no_module_reads_another_objects_private_attributes():
    reads = [f"{path.relative_to(SRC)}:{read}"
             for path in sorted(SRC.rglob("*.py"))
             for read in foreign_private_reads(path)]
    assert reads == []


def self_assignments(path: Path) -> list[tuple[str, str]]:
    """``(line: Class, name)`` for each attribute a class in ``path`` assigns on ``self``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(f"{node.lineno}: {cls.name}", node.attr)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def attribute_reads(path: Path) -> set[str]:
    """Names ``path`` reads as attributes, directly or by ``getattr``/``hasattr``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("getattr", "hasattr") and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant):
            reads.add(node.args[1].value)
    return reads


def test_every_attribute_set_on_self_is_read():
    reads = set().union(*(attribute_reads(path)
                          for folder in ("src", "tests", "perfbench")
                          for path in (ROOT / folder).rglob("*.py")))
    unread = [f"{path.relative_to(SRC)}:{where}.{name}"
              for path in sorted(SRC.rglob("*.py"))
              for where, name in self_assignments(path) if name not in reads]
    assert unread == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def class_members(path: Path) -> list[tuple[str, str]]:
    """``(line: Class, name)`` for each method or property a class in ``path`` defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(f"{node.lineno}: {cls.name}", node.name)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, FUNCTIONS)]


def test_every_method_and_property_is_read():
    reads = set().union(*(attribute_reads(path)
                          for folder in ("src", "tests", "perfbench")
                          for path in (ROOT / folder).rglob("*.py")))
    unread = [f"{path.relative_to(SRC)}:{where}.{name}"
              for path in sorted(SRC.rglob("*.py"))
              for where, name in class_members(path)
              if name not in reads and not (name.startswith("__") and name.endswith("__"))]
    assert unread == []


def module_definitions(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` for each function and class ``path`` defines at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, (*FUNCTIONS, ast.ClassDef))]


def name_reads(path: Path) -> set[str]:
    """Names ``path`` reads, and the original names of its renamed imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names if alias.asname)
    return reads


def test_every_module_level_function_and_class_is_read():
    reads = set().union(*(attribute_reads(path) | name_reads(path)
                          for folder in ("src", "tests", "perfbench")
                          for path in (ROOT / folder).rglob("*.py")))
    unread = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in sorted(SRC.rglob("*.py"))
              for line, name in module_definitions(path) if name not in reads]
    assert unread == []


ORACLE_INPUTS = {
    "citykit.feedgen": {"Lcg64"},
    "citykit.gtfs": {"Agency", "GtfsFeed", "Route", "Service", "Stop", "StopTime", "Trip"},
    "citykit.ngsi": {"Attribute", "NgsiEntity"},
}


def test_oracles_import_only_inputs_and_data_types_from_citykit():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports += [(node.module, alias.name) for alias in node.names]
    foreign = [f"{module}.{name}" if name else module for module, name in imports
               if module and module.split(".")[0] == "citykit"
               and name not in ORACLE_INPUTS.get(module, ())]
    assert foreign == []


def imported_top_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_test_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    test_dirs = [ROOT / "tests", ROOT / "perfbench" / "tests"]
    local = {"citykit"} | {path.stem for folder in test_dirs + [ROOT / "perfbench"]
                           for path in folder.glob("*.py")}
    undeclared = sorted(f"{path.relative_to(ROOT)}: {name}"
                        for folder in test_dirs for path in sorted(folder.glob("*.py"))
                        for name in imported_top_modules(path)
                        if name not in sys.stdlib_module_names | local | declared)
    assert undeclared == []
