"""`src/` holds what a command runs.

Every name in a library module's `__all__` must be used by code under
`src/`, `demos/` or `perfbench/`; a check that only the tests call lives
under `tests/`.  The scan reads the source with `ast`: a name counts as
used where it is imported from its module, read as an attribute of an
imported module, or read by name inside its own module.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "delaymatch"


def _exported() -> set[tuple[str, str]]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update((path.stem, e.value) for e in node.value.elts)
    return names


def _library_module(node: ast.ImportFrom) -> str | None:
    """The `delaymatch` module an import names, "" for the package itself,
    None for anything else."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "delaymatch":
        return node.module.partition(".")[2]
    return None


def _used() -> set[tuple[str, str]]:
    paths = [
        *PACKAGE.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")
    ]
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent == PACKAGE else None
        modules = {}  # local name -> library module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _library_module(node)
                for alias in node.names if module is not None else ():
                    if module:
                        used.add((module, alias.name))
                    else:
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Name) and own and isinstance(node.ctx, ast.Load):
                used.add((own, node.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    used.add((modules[node.value.id], node.attr))
    return used


def test_every_public_name_is_used_outside_the_tests():
    unused = _exported() - _used()
    assert not unused, f"public names only the tests use: {sorted(unused)}"

