"""List the ``.fail(`` and ``raise`` sites of ``src/ghz`` that the Tier-1
suite never runs.

Opt-in: the name has no ``test_`` prefix, so pytest does not collect it.
Run from the repository root, with any extra pytest arguments:

    PYTHONPATH=src python tests/trace_unrun.py [-k EXPR]

It runs the suite in this process under a ``sys.settrace`` hook that traces
lines only in frames of ``src/ghz`` files; expect about four times the
suite's own time.  A site is a statement that is a ``raise`` or holds a
``.fail(`` call, counted at its first line.  Tests that run the command line
in a subprocess are not traced, so a site that only they reach is listed
too.  Exits with pytest's exit code.
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


def _fails(node):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "fail" for n in ast.walk(node))


def sites():
    """{(resolved file, line): source line} of every site."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.Raise) or (
                    isinstance(node, ast.stmt)
                    and not isinstance(node, COMPOUND) and _fails(node)):
                out[str(path), node.lineno] = lines[node.lineno - 1].strip()
    return out


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
    print(f"\n{len(unrun)} of {len(found)} .fail( and raise sites never run:")
    for path, line in unrun:
        print(f"  {Path(path).relative_to(ROOT)}:{line}: "
              f"{found[path, line]}")
    print("Tests that run the command line in a subprocess are not traced: "
          "a site that only they reach is listed too.")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
