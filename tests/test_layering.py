"""Modules of uext import only each other's public names: a `_`-prefixed name stays in its module.
Only `caps` names a cap's environment variable or reads the environment, only `syntax`
defines a connective, and no module builds its classes with `dataclasses`, so importing the
command line loads neither it nor `inspect`."""

import ast
import os
import re
import subprocess
import sys
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


def reads_environment(path: Path) -> bool:
    """Whether the file imports os, reads an environ or getenv attribute, or names a UEXT_ variable."""
    return any(isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "os" for a in node.names)
               or isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == "os"
               or isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv")
               or isinstance(node, ast.Constant) and isinstance(node.value, str)
               and re.fullmatch(r"UEXT_\w+", node.value) is not None
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_caps_reads_the_environment():
    assert [path.name for path in sorted(SRC.glob("*.py")) if reads_environment(path)] == ["caps.py"]


CONNECTIVES = {"Not", "And", "Or", "Imp", "Neg", "Conj", "Disj", "Impl"}  # the names either logic used


def test_only_syntax_defines_a_connective():
    defined = {path.name: sorted(node.name for node in ast.walk(ast.parse(path.read_text()))
                                 if isinstance(node, ast.ClassDef) and node.name in CONNECTIVES)
               for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in defined.items() if names} == {"syntax.py": ["And", "Imp", "Not", "Or"]}


def imports_dataclasses(path: Path) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "dataclasses" for a in node.names)
               or isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == "dataclasses"
               for node in ast.walk(ast.parse(path.read_text())))


def test_no_module_imports_dataclasses():
    assert [path.name for path in sorted(SRC.glob("*.py")) if imports_dataclasses(path)] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses builds each class by exec()ing the methods it writes, about half the cost of importing uext.cli
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import uext.cli\n"
              "print(sorted({'dataclasses', 'inspect'} - before & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert run.stdout == "[]\n"
