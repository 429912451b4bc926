"""Source hygiene: no unused module-level imports in the package, and every
name the package exports resolves."""

import ast
from pathlib import Path

import discde

PACKAGE = Path(discde.__file__).resolve().parent


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)  # re-exports count as uses
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    unused = [u for path in sorted(PACKAGE.glob("*.py"))
              for u in _unused_imports(path)]
    assert unused == []


def test_exports_resolve():
    missing = [name for name in discde.__all__ if not hasattr(discde, name)]
    assert missing == []
