"""The command line holds no verify mathematics: ``cli.py`` neither imports
nor reads a step of ``engine.verify``, so only the engine knows the rows of
the image table and how each step reads them.  Inside the engine every
failed application is a row's data, a descent failure and an element
outside the domain alike: no ``except`` clause names an engine error.  The
axioms and stability read the rows only: they apply nothing.  A row holds
every order of its term, so only the apply path reads a truncation order:
``verify`` and its steps neither take nor read one."""

import ast
from pathlib import Path

import ghz

CLI = Path(ghz.__file__).parent / "cli.py"
ENGINE = Path(ghz.__file__).parent / "engine.py"
STEPS = {"image_table", "verify_axioms", "verify_stability", "kernel_in_box",
         "apply_term"}


def step_uses(source):
    """(line, name) of every import of a verify step and every read of one,
    as a name or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name in STEPS]
        elif isinstance(node, ast.Name) and node.id in STEPS:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in STEPS:
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_cli_uses_no_verify_step():
    assert step_uses(CLI.read_text(encoding="utf-8")) == []


def test_scan_sees_imports_names_and_attributes():
    source = ("from .engine import verify, verify_axioms as axioms\n"
              "import engine\n"
              "op.apply_term(f, m)\n"
              "kernel_in_box(op, {}, 3)\n"
              "step = engine.verify_stability\n"
              "verify(op, [], 0, 0, rep)\n")
    assert step_uses(source) == [(1, "verify_axioms"), (3, "apply_term"),
                                 (4, "kernel_in_box"),
                                 (5, "verify_stability")]


APPLICATIONS = {"apply", "apply_term", "_lift", "hasse_expand",
                "descend_power"}


def names_read(source, function):
    """Every name that the top-level ``function`` reads, as a name or as an
    attribute, so an alias of a method counts as well as a call."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(fn)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_axioms_and_stability_apply_nothing():
    source = ENGINE.read_text(encoding="utf-8")
    for function in ("verify_axioms", "verify_stability"):
        assert names_read(source, function) & APPLICATIONS == set(), function


def test_name_scan_sees_calls_and_aliases():
    source = ("def f(op, x):\n    op.apply(x)\n    lift = op._lift\n"
              "    descend_power(x)\n"
              "def g(op):\n    op.apply_term(1, 2)\n")
    assert names_read(source, "f") & APPLICATIONS == {
        "apply", "_lift", "descend_power"}
    assert names_read(source, "g") & APPLICATIONS == {"apply_term"}


TRUNCATION = {"max_order", "order"}
UNTRUNCATED = ("verify", "image_table", "verify_axioms", "verify_stability",
               "kernel_in_box")


def truncation_names(source, function):
    """The truncation-order names that the top-level ``function`` takes as a
    parameter (its own or a nested function's), reads, or passes as a
    keyword."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    names = {node.arg for node in ast.walk(fn)
             if isinstance(node, (ast.arg, ast.keyword))}
    return (names | names_read(source, function)) & TRUNCATION


def test_verify_reads_no_truncation_order():
    source = ENGINE.read_text(encoding="utf-8")
    for function in UNTRUNCATED:
        assert truncation_names(source, function) == set(), function


def test_truncation_scan_sees_parameters_reads_and_keywords():
    source = ("def a(op, max_order):\n    pass\n"
              "def b(op):\n    return op.order\n"
              "def c(op, f, m):\n    op.apply_term(f, m, max_order=3)\n"
              "def d(op):\n    def inner(order=0):\n        pass\n"
              "def e(op, box):\n    return box\n")
    assert [truncation_names(source, fn) for fn in "abcde"] == [
        {"max_order"}, {"order"}, {"max_order"}, {"order"}, set()]


def engine_error_handlers(source):
    """The function around each ``except`` clause that names EngineError
    or Refusal, alone or in a tuple."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler) and node.type and {
                    n.id for n in ast.walk(node.type)
                    if isinstance(n, ast.Name)} & {"EngineError", "Refusal"}:
                out.append(fn.name)
    return out


def test_engine_catches_no_engine_error():
    assert engine_error_handlers(ENGINE.read_text(encoding="utf-8")) == []


def test_handler_scan_sees_names_and_tuples():
    source = ("def a():\n    try:\n        pass\n"
              "    except (KeyError, Refusal):\n        pass\n"
              "def b():\n    try:\n        pass\n"
              "    except FieldError:\n        pass\n"
              "    except EngineError as exc:\n        pass\n")
    assert engine_error_handlers(source) == ["a", "b"]
