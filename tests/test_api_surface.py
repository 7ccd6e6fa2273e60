"""Every public name in the package is used by the program or the benchmark.

A public module-level function, class or constant, or a public method or
property of a class, counts as used when its name occurs as a whole word in
``src/canalmpc/`` or ``perfbench/`` somewhere other than the line that
defines it.  Tests do not count: an API only the tests call is dead code.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "canalmpc"
SEARCHED = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
LINES = [(path, lineno, line)
         for path in SEARCHED
         for lineno, line in enumerate(path.read_text().splitlines(), start=1)]


def _public_definitions():
    """(module file, line, name) per public def, class and constant, methods included."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                found += [(path, node.lineno, name) for name in targets]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.append((path, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(path, item.lineno, item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef)]
    return [(path, line, name) for path, line, name in found
            if not name.startswith("_")]


def _references(name, skip):
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return sum(1 for path, lineno, line in LINES
               if (path, lineno) != skip and pattern.search(line))


def test_every_public_name_is_referenced():
    unused = [
        f"{path.name}:{line} {name}"
        for path, line, name in _public_definitions()
        if _references(name, skip=(path, line)) == 0
    ]
    assert not unused, "public names nothing uses:\n" + "\n".join(unused)
