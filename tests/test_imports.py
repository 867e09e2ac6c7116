"""No module of the package or its tests imports a name it never uses.

A stdlib `ast` pass: an imported name counts as used when the module reads
it anywhere, when the module's `__all__` lists it, or when its import line
carries `# noqa`.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DIRS = ("src/quam", "tests")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name that `source` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used and "# noqa" not in lines[line - 1]]


def test_unused_imports_are_found():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads as ld\n__all__ = ['dumps']\n"
    assert unused_imports(source) == [(1, "os"), (3, "ld")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for d in DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            if name.endswith(".py"):
                with open(os.path.join(ROOT, d, name)) as f:
                    found += [f"{d}/{name}:{line} {imp}" for line, imp in unused_imports(f.read())]
    assert not found, found
