"""List the ``.fail(``, ``.defer(`` and ``raise`` sites of ``src/ghz`` that
the Tier-1 suite never runs.

Opt-in: the name has no ``test_`` prefix, so pytest does not collect it.
Run from the repository root, with any extra pytest arguments:

    PYTHONPATH=src python tests/trace_unrun.py [-k EXPR]

It runs the suite in this process under a ``sys.settrace`` hook that traces
lines only in frames of ``src/ghz`` files; expect about four times the
suite's own time.  A site is a statement that is a ``raise`` or holds a
``.fail(`` or ``.defer(`` call, counted at its first line.  A ``.defer(``
call fails a report with a thunk that formats the witnesses only when they
are read, so each statement of the thunk that holds an f-string is a site
too: a nested function of the same scope passed by name, or a lambda.
Tests that run the command line in a subprocess are not traced, so a site
that only they reach is listed too.  With no pytest arguments it is a
gate: it exits 1 when a site is unrun, so every new site needs a test that
reaches it.  Otherwise (a selection runs only part of the suite) it exits
with pytest's exit code.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ghz"
COMPOUND = (ast.If, ast.For, ast.While, ast.With, ast.Try, ast.FunctionDef,
            ast.AsyncFunctionDef, ast.ClassDef, ast.AsyncFor, ast.AsyncWith,
            ast.Match)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _calls(node, attr):
    """The ``.attr(`` calls within ``node``."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == attr]


def _simple(node):
    return isinstance(node, ast.stmt) and not isinstance(node, COMPOUND)


def _thunk_lines(tree):
    """The formatting lines of every thunk passed to a ``.defer(`` call."""
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        nested = {n.name: n for n in scope.body if isinstance(n, SCOPES)}
        for call in _calls(scope, "defer"):
            for arg in call.args:
                if isinstance(arg, ast.Lambda):
                    yield arg.body
                elif isinstance(arg, ast.Name) and arg.id in nested:
                    yield from (n for n in ast.walk(nested[arg.id])
                                if _simple(n) and any(
                                    isinstance(f, ast.JoinedStr)
                                    for f in ast.walk(n)))


def sites_in(source):
    """{line: stripped source line} of every site of one module."""
    lines = source.splitlines()
    tree = ast.parse(source)
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Raise) or _simple(node) and (
                 _calls(node, "fail") or _calls(node, "defer"))]
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in found + list(_thunk_lines(tree))}


def sites():
    """{(resolved file, line): source line} of every site."""
    return {(str(path), line): text for path in sorted(SRC.glob("*.py"))
            for line, text in sites_in(
                path.read_text(encoding="utf-8")).items()}


def run(args):
    """Run pytest on ``tests`` with ``args`` under the line hook: (exit
    code, set of (resolved file, line) that ran)."""
    files = {str(p) for p in SRC.glob("*.py")}
    known, ran = {}, set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        ours = known.get(name)
        if ours is None:
            ours = known[name] = str(Path(name).resolve()) in files
        return local if ours else None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p",
                            "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {(str(Path(f).resolve()), n) for f, n in ran}


def main(args):
    code, ran = run(args)
    found = sites()
    unrun = sorted(site for site in found if site not in ran)
    print(f"\n{len(unrun)} of {len(found)} .fail(, .defer( and raise "
          "sites never run:")
    for path, line in unrun:
        print(f"  {Path(path).relative_to(ROOT)}:{line}: "
              f"{found[path, line]}")
    print("Tests that run the command line in a subprocess are not traced: "
          "a site that only they reach is listed too.")
    return 1 if code == 0 and unrun and not args else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
