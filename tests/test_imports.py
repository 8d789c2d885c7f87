import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghz

PACKAGE = Path(ghz.__file__).parent


def _unused_imports(tree):
    """Names bound by an import statement that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused.extend(f"{path.name}:{line}: {name}"
                      for line, name in _unused_imports(tree))
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_unused_import_scan_sees_local_and_aliased_imports():
    tree = ast.parse("from math import floor, lcm as l\n"
                     "def f():\n"
                     "    import os.path\n"
                     "    return floor(1)\n")
    assert _unused_imports(tree) == [(1, "l"), (3, "os")]


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    return modules | {node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)}


@pytest.mark.parametrize("name", ["geometry.py", "tvariety.py"])
def test_integer_module_imports_nothing_from_fractions(name):
    """Vertices are ints over a divisor's den, and D(m) is evaluated on
    them, so geometry and the divisor layer stay integer."""
    assert "fractions" not in _imported_modules(PACKAGE / name)


# dataclasses pulls in the first five; building its records also compiles
# generated methods, which together took a large share of the CLI's cold
# start.  argparse brings gettext, and its first parser locale.
COLD_START_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                   "argparse", "gettext", "locale")


def test_no_module_imports_dataclasses():
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "dataclasses" in _imported_modules(path)]
    assert not users


def test_cli_cold_start_loads_no_dataclasses_or_inspect():
    """Neither importing ghz.cli nor running a command loads them: a module
    imported on first use would count as well."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = ("import io, sys, ghz.cli\n"
             "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
             "assert ghz.cli.main(['example']) == 0\n"
             "sys.stdout = stdout\n"
             f"print(' '.join(m for m in {COLD_START_FREE!r} "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
