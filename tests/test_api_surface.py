"""Every public name in the package is used by the program or the benchmark.

A public module-level function, class or constant, or a public method or
property of a class, counts as used when its name occurs as code in
``src/canalmpc/`` or ``perfbench/`` somewhere other than the line that
defines it: as a name, an attribute or a keyword argument, read from the
syntax tree, so that a docstring, a comment or a string that still names a
deleted API does not count.  Tests do not count: an API only the tests call
is dead code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "canalmpc"
SEARCHED = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def _code_names(path):
    """(line, name) per Name, Attribute and keyword node of the module at `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.end_lineno, node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.lineno, node.arg


USES = [(path, lineno, name) for path in SEARCHED for lineno, name in _code_names(path)]


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
    return sum(1 for path, lineno, used in USES if used == name and (path, lineno) != skip)


def test_every_public_name_is_referenced():
    unused = [
        f"{path.name}:{line} {name}"
        for path, line, name in _public_definitions()
        if _references(name, skip=(path, line)) == 0
    ]
    assert not unused, "public names nothing uses:\n" + "\n".join(unused)
