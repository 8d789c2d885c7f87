"""Every function, class and method in src/ghz is read somewhere else.

A definition is reachable when its name is read, as a name or as an
attribute, in src/ghz outside its own body, in perfbench/*.py, or as a part
of a wrap target in perfbench/workloads.json. A method is reached only by an
attribute read: a bare name such as the builtin ``pow`` in ``pow(a, n, p)``
does not read a method ``pow``. Dunder methods are exempt, since the
interpreter calls them. Code that only the tests read belongs in the tests.
"""

import ast
import json
from pathlib import Path

import ghz

PACKAGE = Path(ghz.__file__).parent
BENCH = PACKAGE.parent.parent / "perfbench"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(node, is_method) of every definition that is not a dunder."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return [(node, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, _DEFS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _reads(tree):
    """(name, line, is_attribute) of every name and attribute that a module
    reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno, True))
    return out


def unreached(modules, outside, wrap_targets):
    """``module:line: name`` for every definition in ``modules`` (module name
    -> source) that is read nowhere but in its own body, in no source of
    ``outside`` and in no ``module:Qual.name`` of ``wrap_targets``; only an
    attribute read reaches a method."""
    external = {(name, attr) for source in outside
                for name, _, attr in _reads(ast.parse(source))}
    for target in wrap_targets:
        external.update((part, attr)
                        for part in target.partition(":")[2].split(".")
                        for attr in (False, True))
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    reads = {mod: _reads(tree) for mod, tree in trees.items()}
    missing = []
    for mod, tree in trees.items():
        for node, is_method in _definitions(tree):
            if (node.name, True) in external \
                    or (node.name, False) in external and not is_method:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (attr or not is_method)
                       and not (other == mod and line in body)
                       for other, seen in reads.items()
                       for name, line, attr in seen):
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


def test_scan_does_not_read_a_method_from_a_bare_name():
    modules = {
        "f.py": ("class Field:\n"
                 "    def pow(self, a, n):\n"
                 "        pass\n"
                 "    def inv(self, a):\n"
                 "        return pow(a, 5, 7)\n"
                 "def helper():\n"
                 "    pass\n"
                 "Field().inv(2)\n"),
        "g.py": "from f import helper\nhelper()\n",
    }
    # the builtin pow in inv does not reach the method pow
    assert unreached(modules, [], []) == ["f.py:2: pow"]
    assert unreached(modules, ["pow(2, 3)"], []) == ["f.py:2: pow"]
    assert unreached(modules, ["Field().pow(2, 3)"], []) == []
    assert unreached(modules, [], ["f:Field.pow"]) == []
