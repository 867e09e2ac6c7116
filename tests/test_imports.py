"""No module of the package or its tests imports a name it never uses, no
function of the package takes a parameter it never reads, no class of the
package holds state that no real caller reads, and no optional parameter
of the package is one that no real caller passes.

Stdlib `ast` passes.  An imported name counts as used when the module reads
it anywhere, when the module's `__all__` lists it, or when its import line
carries `# noqa`.  A parameter counts as read when its function's body,
nested functions included, loads the name; `UNREAD_PARAMETERS` lists the
ones a caller's fixed signature requires.  The real callers are the
package, the benchmark, the golden runs and the acceptance tests
(`real_callers`); the unit tests are not among them.  A dataclass field,
or an attribute that a method sets on `self`, counts as read when some real
caller loads an attribute of its name.  An optional parameter, of a
function, a method or a dataclass constructor, counts as passed when some
call of its name in a real caller passes it, by keyword or by position
(see `calls`).
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


@functools.lru_cache(maxsize=None)
def real_callers() -> tuple[str, ...]:
    """The sources of every module of the package and the benchmark, and of the golden runs and the acceptance tests."""
    paths = [os.path.join(ROOT, "tests", name) for name in ("test_golden.py", "test_acceptance.py")]
    for d in ("src/quam", "bench"):
        paths += [os.path.join(root, name) for root, _, names in os.walk(os.path.join(ROOT, d)) for name in sorted(names) if name.endswith(".py")]
    sources = []
    for path in paths:
        with open(path) as f:
            sources.append(f.read())
    return tuple(sources)


def class_state(source: str) -> list[str]:
    """`Class.name` of every annotated field of every `@dataclass` class in `source`, then of every attribute that a method of a class sets on `self`."""
    fields, attributes = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for n in ast.walk(method):
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name) and n.value.id == "self":
                            attributes.append(f"{node.name}.{n.attr}")
    return fields + list(dict.fromkeys(attributes))


def attributes_read(source: str) -> set[str]:
    """The name of every attribute that `source` loads."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_state(definitions: str, callers) -> list[str]:
    """`Class.name` of every field and `self` attribute in `definitions` (`class_state`) that no source of `callers` loads."""
    read = set().union(*map(attributes_read, callers))
    return [name for name in class_state(definitions) if name.rsplit(".", 1)[1] not in read]


def test_unread_fields_are_found():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n\n@dataclass\nclass B:\n    z: int\n\n"
        "class C:\n    w: int\n\n    def __init__(self, v):\n        self.v = v\n        self.u = self.s = v\n        self.t[0] = v\n        self.v += 1\n\n"
        "def f(a, b):\n    a.y = b.x\n"
    )
    assert class_state(source) == ["A.x", "A.y", "B.z", "C.v", "C.u", "C.s"]
    # a subscript store reads its attribute; only the real callers' reads count
    assert unread_state(source, [source, "print(c.u)\n"]) == ["A.y", "B.z", "C.v", "C.s"]
    assert unread_state(source, [source]) == ["A.y", "B.z", "C.v", "C.u", "C.s"]


def test_every_field_and_attribute_of_the_package_is_read():
    found = []
    for name in sorted(os.listdir(os.path.join(ROOT, "src/quam"))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "src/quam", name)) as f:
                found += [f"{name}:{state}" for state in unread_state(f.read(), real_callers())]
    assert not found, found


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


def settings_keys(node, scope) -> set | None:
    """The keys that `**node` passes when `node` is a `<cfg>.settings(section, key=kind, ...)` call, an if-expression of two such, or a name that the function `scope` binds to such alone; else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "settings":
        return {kw.arg for kw in node.keywords}
    if isinstance(node, ast.IfExp):
        a, b = settings_keys(node.body, scope), settings_keys(node.orelse, scope)
        return None if a is None or b is None else a | b
    if isinstance(node, ast.Name) and scope is not None:
        # every binding of the name in the function is an assignment of such, and none is a parameter
        stores = [n for n in ast.walk(scope) if isinstance(n, ast.arg) and n.arg == node.id or isinstance(n, ast.Name) and n.id == node.id and not isinstance(n.ctx, ast.Load)]
        values = [a.value for a in ast.walk(scope) if isinstance(a, ast.Assign) and [ast.unparse(t) for t in a.targets] == [node.id]]
        keys = [settings_keys(v, None) for v in values]
        if stores and len(values) == len(stores) and None not in keys:
            return set().union(*keys)
    return None


@functools.lru_cache(maxsize=None)  # each caller's source is scanned once for every module it is checked against
def calls(source: str) -> list[tuple[str, float, set]]:
    """(name, positional count, keyword names) of every call in `source`.

    `super().__init__` calls the first base class.  `**mapping` passes the
    keys of `settings_keys` when it finds them in the enclosing function;
    any other `**mapping` passes every keyword (`EVERY_KEYWORD`), and
    `*args` every position.
    """
    found = []

    def visit(node, cls, fn):
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
                    elif (keys := settings_keys(k.value, fn)) is not None:
                        keywords |= keys
                    else:
                        keywords = EVERY_KEYWORD
                        break
                if name is not None:
                    found.append((name, positional, keywords))
            visit(child, child if isinstance(child, ast.ClassDef) else cls, child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) else fn)

    visit(ast.parse(source), None, None)
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
    # a name bound to settings calls alone passes their keys; a dict display, a parameter or a rebound name passes every keyword
    resolved = (
        "def g(cfg, flag, opts):\n"
        "    kw = cfg.settings('s', d=int) if flag else cfg.settings('s', b=int)\n"
        "    f(0, **kw)\n    C(0, **{'t': 1})\n    A(0).m(**opts)\n"
        "    kv = cfg.settings('s', x=int)\n    kv = dict(kv, y=0)\n    B(**kv)\n"
    )
    assert unpassed_parameters(definitions, [definitions, resolved]) == ["f(c)", "f(e)"]
    assert unpassed_parameters(definitions, [definitions, resolved.replace("f(0, **kw)", "f(0, e=1, **kw)")]) == ["f(c)"]


def test_every_optional_parameter_of_the_package_is_passed_by_some_caller():
    # quam.autodiff is left out: the generic Tape is due to be deleted
    found = []
    for name in sorted(os.listdir(os.path.join(ROOT, "src/quam"))):
        if name.endswith(".py") and name != "autodiff.py":
            with open(os.path.join(ROOT, "src/quam", name)) as f:
                found += [f"{name}:{p}" for p in unpassed_parameters(f.read(), real_callers())]
    assert not found, found
