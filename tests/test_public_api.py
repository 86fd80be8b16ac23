"""The package's public names resolve, and its modules leave nothing unused.

A name deleted from its module but left in `__all__` fails only on
`from levypassage import *`, which no other test does.  No linter runs on
this code, so an import left behind by a deletion, or a private helper
whose last caller went, is found here.
"""

import ast
import re
from pathlib import Path

import pytest

import levypassage

MODULES = sorted(Path(levypassage.__file__).parent.glob("*.py"))
NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*\S")  # the code, then its reason


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from levypassage import *", namespace)
    assert len(set(levypassage.__all__)) == len(levypassage.__all__)
    assert set(levypassage.__all__) <= namespace.keys()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and not NOQA.search(text):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def _private_definitions(tree):
    """(name, line) of each `_x` that a module body or a class body defines."""
    for body in [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield name, node.lineno


def test_every_private_name_is_read():
    """Each private name defined at module or class level is read in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    defined = [(f"{name}:{line} {d}", d) for name, tree in trees.items()
               for d, line in _private_definitions(tree)]
    assert defined
    assert [where for where, d in defined if d not in read] == []
