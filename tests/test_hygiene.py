"""Source hygiene: every name a ``citykit`` module imports is read somewhere in it.

The package ``__init__.py`` files are left out: they import names in order to
re-export them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "citykit"


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
              for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
              for name in unread_imports(path)]
    assert unread == []
