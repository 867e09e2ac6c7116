"""No module of the package or its tests imports a name it never uses, no
function of the package takes a parameter it never reads, no dataclass
of the package has a field that nothing reads, and no optional parameter
of the package is one that no caller passes.

Stdlib `ast` passes.  An imported name counts as used when the module reads
it anywhere, when the module's `__all__` lists it, or when its import line
carries `# noqa`.  A parameter counts as read when its function's body,
nested functions included, loads the name; `UNREAD_PARAMETERS` lists the
ones a caller's fixed signature requires.  A dataclass field counts as read
when some module of the package, the benchmark or the tests loads an
attribute of its name.  An optional parameter, of a function, a method or
a dataclass constructor, counts as passed when some call of its name in
the package, the benchmark, the golden runs or the acceptance tests
passes it, by keyword or by position (see `calls`).
"""

from __future__ import annotations

import ast
import functools
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DIRS = ("src/quam", "tests")
# main calls every command as (cfg, out, seed), and varstudy draws nothing
UNREAD_PARAMETERS = {"cli.py:cmd_varstudy(seed)"}


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


def unread_parameters(source: str) -> list[str]:
    """`function(parameter)` of every parameter that a function of `source` never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            found += [f"{name}({p.arg})" for p in params if p.arg not in read]
    return found


def test_unread_parameters_are_found():
    source = "def f(a, b, *c, d=1, **e):\n    return a + d\n\ng = lambda x, y: x\n\ndef h(k):\n    def inner():\n        return k\n    return inner\n"
    assert unread_parameters(source) == ["f(b)", "f(c)", "f(e)", "lambda(y)"]


def test_no_function_of_the_package_takes_a_parameter_it_never_reads():
    found = set()
    for name in sorted(os.listdir(os.path.join(ROOT, "src/quam"))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "src/quam", name)) as f:
                found |= {f"{name}:{fn}" for fn in unread_parameters(f.read())}
    assert found == UNREAD_PARAMETERS


def dataclass_fields(source: str) -> list[str]:
    """`Class.field` of every annotated field of every `@dataclass` class in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                found += [f"{node.name}.{stmt.target.id}" for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def attributes_read(source: str) -> set[str]:
    """The name of every attribute that `source` loads."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_unread_fields_are_found():
    source = "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n\n@dataclass\nclass B:\n    z: int\n\nclass C:\n    w: int\n\ndef f(a, b):\n    a.y = b.x\n"
    fields = dataclass_fields(source)
    assert fields == ["A.x", "A.y", "B.z"]
    assert [f for f in fields if f.split(".")[1] not in attributes_read(source)] == ["A.y", "B.z"]


def test_every_dataclass_field_of_the_package_is_read():
    fields, read = [], set()
    for d in ("src/quam", "bench", "tests"):
        for root, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    with open(os.path.join(root, name)) as f:
                        source = f.read()
                    if d == "src/quam":
                        fields += [f"{name}:{field}" for field in dataclass_fields(source)]
                    read |= attributes_read(source)
    unread = [field for field in fields if field.rsplit(".", 1)[1] not in read]
    assert fields and not unread, unread


def optional_parameters(source: str) -> list[tuple[str, str, list[str], list[str]]]:
    """(definition, name a call uses, positional parameters, optional parameters) of every function, method and dataclass constructor in `source`.

    A call names a method by its own name, less `self`, and `__init__` or a
    dataclass's constructor by its class's name.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                decorators = [d.func if isinstance(d, ast.Call) else d for d in child.decorator_list]
                if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                    fields = [stmt for stmt in child.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
                    found.append((child.name, child.name, [f.target.id for f in fields], [f.target.id for f in fields if f.value is not None]))
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                optional = positional[len(positional) - len(a.defaults) :] + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                name = cls.name if cls is not None and child.name == "__init__" else child.name
                found.append((f"{cls.name}.{child.name}" if cls is not None else child.name, name, positional, optional))
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


EVERY_KEYWORD = None


@functools.lru_cache(maxsize=None)  # each caller's source is scanned once for every module it is checked against
def calls(source: str) -> list[tuple[str, float, set]]:
    """(name, positional count, keyword names) of every call in `source`.

    `super().__init__` calls the first base class.  `**cfg.settings(section,
    key=kind, ...)` passes its keys; any other `**mapping` passes every
    keyword (`EVERY_KEYWORD`), and `*args` every position.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "super" and cls is not None:
                    name = ast.unparse(cls.bases[0]).split(".")[-1]
                positional = float("inf") if any(isinstance(a, ast.Starred) for a in child.args) else len(child.args)
                keywords = set()
                for k in child.keywords:
                    if k.arg is not None:
                        keywords.add(k.arg)
                    elif isinstance(k.value, ast.Call) and getattr(k.value.func, "attr", None) == "settings":
                        keywords |= {kw.arg for kw in k.value.keywords}
                    else:
                        keywords = EVERY_KEYWORD
                        break
                if name is not None:
                    found.append((name, positional, keywords))
            visit(child, child if isinstance(child, ast.ClassDef) else cls)

    visit(ast.parse(source), None)
    return found


def unpassed_parameters(definitions: str, callers: list[str]) -> list[str]:
    """`definition(parameter)` of every optional parameter in `definitions` that no call in `callers` passes."""
    passes = {}
    for source in callers:
        for name, positional, keywords in calls(source):
            passes.setdefault(name, []).append((positional, keywords))
    found = []
    for qualname, name, positional, optional in optional_parameters(definitions):
        for p in optional:
            at = positional.index(p) if p in positional else float("inf")
            if not any(keywords is EVERY_KEYWORD or p in keywords or at < count for count, keywords in passes.get(name, [])):
                found.append(f"{qualname}({p})")
    return found


def test_unpassed_parameters_are_found():
    definitions = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "class A:\n    def __init__(self, x, y=0):\n        pass\n\n    def m(self, z=0):\n        pass\n\n"
        "class B(A):\n    def __init__(self, w=0):\n        super().__init__(w, y=w)\n\n"
        "@dataclass\nclass C:\n    u: int\n    v: int = 0\n    t: int = 1\n"
    )
    callers = [definitions, "f(0, 1, d=2)\nA(0).m()\nC(0, **opts)\nB(**cfg.settings('b', w=int))\n"]
    assert unpassed_parameters(definitions, callers) == ["f(c)", "f(e)", "A.m(z)"]


def test_every_optional_parameter_of_the_package_is_passed_by_some_caller():
    # quam.autodiff is left out: the generic Tape is due to be deleted
    paths = [os.path.join(ROOT, "tests", name) for name in ("test_golden.py", "test_acceptance.py")]
    for d in ("src/quam", "bench"):
        paths += [os.path.join(root, name) for root, _, names in os.walk(os.path.join(ROOT, d)) for name in sorted(names) if name.endswith(".py")]
    callers = []
    for path in paths:
        with open(path) as f:
            callers.append(f.read())
    found = []
    for name in sorted(os.listdir(os.path.join(ROOT, "src/quam"))):
        if name.endswith(".py") and name != "autodiff.py":
            with open(os.path.join(ROOT, "src/quam", name)) as f:
                found += [f"{name}:{p}" for p in unpassed_parameters(f.read(), callers)]
    assert not found, found
