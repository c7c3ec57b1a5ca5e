"""Modules of uext import only each other's public names: a `_`-prefixed name stays in its module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uext"


def private_imports(path: Path) -> list[str]:
    """Each `from .module import _name` in the file, as "module._name"."""
    return [f"{node.module or ''}.{alias.name}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: private_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}
