"""Every function, class and method in src/ghz is read somewhere else.

A definition is reachable when its name is read, as a name or as an
attribute, in src/ghz outside its own body, in perfbench/*.py, or as a part
of a wrap target in perfbench/workloads.json. A method is reached only by an
attribute read: a bare name such as the builtin ``pow`` in ``pow(a, n, p)``
does not read a method ``pow``. Dunder methods are exempt, since the
interpreter calls them. Code that only the tests read belongs in the tests.

Likewise every parameter with a default is passed, by keyword or by
position, by some call in src/ghz or perfbench/*.py: a call reaches a
function or method by its name, and a class's ``__init__`` by the class's
name. A call with ``*args`` or ``**kwargs`` may pass any parameter. A
parameter that only the tests pass is an option of the tests alone.
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


def _defaulted(tree):
    """(node, callee, parameter, index) of every parameter with a default:
    the callee is the name a call uses, the index counts the call's
    positional arguments (None for a keyword-only parameter)."""
    classes = {id(node): cls.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name != "__init__" and node.name.startswith("__") \
                and node.name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args
        bound = id(node) in classes and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        callee = classes[id(node)] if node.name == "__init__" else node.name
        first = len(params) - len(args.defaults)
        out += [(node, callee, p.arg, i - bound)
                for i, p in enumerate(params[first:], first)]
        out += [(node, callee, p.arg, None)
                for p, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
    return out


def _calls(tree):
    """(name, positional count, keywords) of every call by a name or an
    attribute; a ``*args`` counts as every position, ``**kwargs`` as the
    keyword None."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) \
                else node.func.attr
            count = float("inf") if any(isinstance(a, ast.Starred)
                                        for a in node.args) else len(node.args)
            out.append((name, count, {k.arg for k in node.keywords}))
    return out


def unpassed(modules, outside):
    """``module:line: callee(parameter)`` for every defaulted parameter of
    ``modules`` (module name -> source) that no call in ``modules`` or
    ``outside`` passes."""
    calls = [call for source in [*modules.values(), *outside]
             for call in _calls(ast.parse(source))]
    return [f"{mod}:{node.lineno}: {callee}({param})"
            for mod, source in modules.items()
            for node, callee, param, index in _defaulted(ast.parse(source))
            if not any(name == callee and (
                param in keywords or None in keywords
                or index is not None and count > index)
                for name, count, keywords in calls)]


def _sources():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text(encoding="utf-8")
               for path in sorted(BENCH.glob("*.py"))]
    return modules, outside


def test_every_definition_is_read_outside_the_tests():
    modules, outside = _sources()
    wraps = json.loads((BENCH / "workloads.json").read_text(
        encoding="utf-8"))["wraps"]
    missing = unreached(modules, outside, [w["target"] for w in wraps])
    assert not missing, "read only by the tests, or by no one:\n" \
        + "\n".join(missing)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    missing = unpassed(*_sources())
    assert not missing, "passed only by the tests, or by no one:\n" \
        + "\n".join(missing)


def test_scan_sees_keyword_positional_and_starred_passes():
    modules = {
        "a.py": ("def f(x, by_key=0, by_pos=0, unused=0, *, only=0):\n"
                 "    pass\n"
                 "class K:\n"
                 "    def __init__(self, a=0, b=0):\n"
                 "        pass\n"
                 "    def method(self, c=0):\n"
                 "        pass\n"
                 "    @staticmethod\n"
                 "    def static(c=0):\n"
                 "        pass\n"
                 "    def __eq__(self, other=None):\n"
                 "        pass\n"
                 "def g(y=0):\n"
                 "    pass\n"
                 "f(1, 2, 3, by_key=4)\n"
                 "K(1).method()\n"
                 "K.static(1)\n"),
    }
    assert unpassed(modules, []) == [
        "a.py:1: f(unused)", "a.py:1: f(only)", "a.py:13: g(y)",
        "a.py:4: K(b)", "a.py:6: method(c)"]
    assert unpassed(modules, ["g(*args)\nK(**kw).method(c=1)\n"
                              "f(0, only=1, unused=2)"]) == []


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
