"""Every function, class and method in src/ghz is read somewhere else.

A definition is reachable when its name is read, as a name or as an
attribute, in src/ghz outside its own body, in perfbench/*.py, or as a part
of a wrap target in perfbench/workloads.json. Dunder methods are exempt,
since the interpreter calls them. Code that only the tests read belongs in
the tests.
"""

import ast
import json
from pathlib import Path

import ghz

PACKAGE = Path(ghz.__file__).parent
BENCH = PACKAGE.parent.parent / "perfbench"


def _definitions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _reads(tree):
    """(name, line) of every name and attribute that a module reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
    return out


def unreached(modules, outside, wrap_targets):
    """``module:line: name`` for every definition in ``modules`` (module name
    -> source) that is read nowhere but in its own body, in no source of
    ``outside`` and in no ``module:Qual.name`` of ``wrap_targets``."""
    external = {name for source in outside
                for name, _ in _reads(ast.parse(source))}
    for target in wrap_targets:
        external.update(target.partition(":")[2].split("."))
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    reads = {mod: _reads(tree) for mod, tree in trees.items()}
    missing = []
    for mod, tree in trees.items():
        for node in _definitions(tree):
            if node.name in external:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (other == mod
                                                  and line in body)
                       for other, seen in reads.items()
                       for name, line in seen):
                missing.append(f"{mod}:{node.lineno}: {node.name}")
    return missing


def test_every_definition_is_read_outside_the_tests():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text(encoding="utf-8")
               for path in sorted(BENCH.glob("*.py"))]
    wraps = json.loads((BENCH / "workloads.json").read_text(
        encoding="utf-8"))["wraps"]
    missing = unreached(modules, outside, [w["target"] for w in wraps])
    assert not missing, "read only by the tests, or by no one:\n" \
        + "\n".join(missing)


def test_scan_sees_attribute_only_and_wrap_only_uses():
    modules = {
        "a.py": ("def called():\n"
                 "    pass\n"
                 "def attribute_only():\n"
                 "    pass\n"
                 "def wrapped():\n"
                 "    pass\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"
                 "class K:\n"
                 "    def method(self):\n"
                 "        pass\n"
                 "    def __eq__(self, other):\n"
                 "        return True\n"
                 "called()\n"),
        "b.py": "import a\na.attribute_only()\n",
    }
    # a read inside a definition's own body does not count
    assert unreached(modules, [], ["a:wrapped"]) == [
        "a.py:7: recursive", "a.py:9: K", "a.py:10: method"]
    assert unreached(modules, ["K().method()"], []) == [
        "a.py:5: wrapped", "a.py:7: recursive"]
