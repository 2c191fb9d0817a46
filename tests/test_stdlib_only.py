"""The package needs nothing beyond the standard library: every module of
``src/ipstar`` imports only standard-library modules, ``ipstar`` itself, or
its own modules by relative import."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ipstar"
ALLOWED = sys.stdlib_module_names | {"ipstar"}


def imported_top_levels(source: str) -> set[str]:
    """Top-level module names of the absolute imports in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_guard_sees_absolute_imports_only():
    source = "import os.path, numpy as np\nfrom json import dumps\nfrom . import x\nfrom .a import b\n"
    assert imported_top_levels(source) == {"os", "numpy", "json"}


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    stray = {f"{path.name}: {name}" for path in files
             for name in imported_top_levels(path.read_text()) - ALLOWED}
    assert stray == set()


def test_cli_import_loads_every_module_and_no_slow_helper():
    """``import ipstar.cli`` loads every module of the package, none deferred,
    so that timing the import times what a command pays; and it loads none
    of ``dataclasses`` (with ``inspect``) or ``datetime``, which the package
    does without.  ``-S`` keeps the site hooks from importing anything."""
    code = f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import ipstar.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert {"dataclasses", "inspect", "datetime"}.isdisjoint(loaded)
    modules = {f"ipstar.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"}
    assert len(modules) > 1 and modules <= loaded
