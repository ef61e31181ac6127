"""Source hygiene: every imported name is used by the module that imports
it, no library function or method exists only for the tests, no defaulted
parameter is left that no caller sets, and every `module.attr` that
README.md names exists.

No linter is installed, so these stdlib AST scans guard src/ and tests/.
Names an __init__.py lists in __all__ count as used (re-exports).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source, is_package_init=False):
    """Names bound by an import statement in source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if is_package_init:
        used |= _exported(tree)
    return sorted(imported - used)


def _exported(tree):
    """The names a module lists in __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_scan_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(w)\n"
    assert unused_imports(source) == ["a", "os", "z"]
    init = "from .m import f, g\n__all__ = ['f']\n"
    assert unused_imports(init, is_package_init=True) == ["g"]


def test_no_unused_imports():
    assert MODULES
    found = {}
    for path in MODULES:
        names = unused_imports(path.read_text(), path.name == "__init__.py")
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def _references(path, tree):
    """(name, module path, enclosing definition or None) for every name read,
    attribute taken or string constant in a module.  The enclosing definition
    is the module-level function or class, or Class.method inside a method."""
    for top in tree.body:
        owner = dict.fromkeys(ast.walk(top), getattr(top, "name", None))
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    owner.update(dict.fromkeys(ast.walk(item), f"{top.name}.{item.name}"))
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, path, owner[node]
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, owner[node]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value, path, owner[node]


def _definitions(tree):
    """(qualified name, name, exported name) of every module-level function
    and every method of a module-level class other than the dunder methods.
    A method is public when its class is."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, node.name


def functions_only_tests_use(root=ROOT, exports_count=True):
    """Module-level functions and class methods of src/convexgeom that only
    tests use.  A use is a reference from another src/ module or from its
    own module outside its body, an __all__ entry (of the function or of the
    method's class), or a mention in demos/ or perfbench/.  With
    exports_count=False, the package's re-exports (its __init__.py and the
    __all__ entries) are no use."""
    trees = {p: ast.parse(p.read_text()) for p in root.glob("src/convexgeom/*.py")}
    outside = " ".join(p.read_text() for d in ("demos", "perfbench")
                       for p in (root / d).glob("*.py"))
    tests = " ".join(p.read_text() for p in (root / "tests").glob("*.py"))
    exported = set().union(*map(_exported, trees.values())) if exports_count else set()
    users = {}
    for path, tree in trees.items():
        if path.name == "__init__.py" and not exports_count:
            continue
        for name, where, owner in _references(path, tree):
            users.setdefault(name, set()).add((where, owner))
    found = []
    for path, tree in trees.items():
        for qualname, name, public in _definitions(tree):
            word = re.compile(rf"\b{name}\b")
            used = (public in exported or word.search(outside)
                    or users.get(name, set()) - {(path, qualname)})
            if not used and word.search(tests):
                found.append(f"{path.stem}.{qualname}")
    return sorted(found)


def test_scan_finds_test_only_functions(tmp_path):
    src = tmp_path / "src" / "convexgeom"
    src.mkdir(parents=True)
    for folder in ("tests", "demos", "perfbench"):
        (tmp_path / folder).mkdir()
    (src / "a.py").write_text(
        "def helper():\n    return helper\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def shown():\n    return used()\n")
    (src / "b.py").write_text(
        "class C:\n"
        "    def __init__(self):\n        self.k = 0\n\n"
        "    def lone(self):\n        return self.lone\n\n"
        "    def inner(self):\n        return 1\n\n"
        "    def outer(self):\n        return self.inner()\n")
    (tmp_path / "tests" / "test_a.py").write_text(
        "from convexgeom.a import helper, shown, used\n"
        "from convexgeom.b import C\nC().lone(), C().outer()\n")
    assert functions_only_tests_use(tmp_path) == ["a.helper", "a.shown",
                                                  "b.C.lone", "b.C.outer"]
    (tmp_path / "demos" / "d.py").write_text(
        "from convexgeom.a import shown\nfrom convexgeom.b import C\nC().outer()\n")
    assert functions_only_tests_use(tmp_path) == ["a.helper", "b.C.lone"]
    (src / "__init__.py").write_text(
        "from .a import helper\nfrom .b import C\n__all__ = ['C', 'helper']\n")
    assert functions_only_tests_use(tmp_path) == []
    assert functions_only_tests_use(tmp_path, exports_count=False) == ["a.helper",
                                                                       "b.C.lone"]


def test_no_test_only_functions():
    assert functions_only_tests_use() == []


# Public functions kept on purpose although only tests call them, beside
# the package's re-export.
KEPT_PUBLIC = {
    "canon.is_isomorphic":
        "the one-call isomorphism test that library users would otherwise "
        "write by comparing canonical forms",
    "graphs.Graph.has_edge":
        "the one-call adjacency test of the public Graph type, which library "
        "code reads off the adjacency rows instead",
    "graphs.emit_edge_list":
        "the writer of the edge-list text that parse_edge_list and the CLI read",
    "harness.read_certificates":
        "the reader of the JSONL files that write_certificates and verify "
        "--certificates produce, for replay through reverify_certificate",
}


def test_public_functions_only_tests_use_are_kept():
    assert functions_only_tests_use(exports_count=False) == sorted(KEPT_PUBLIC)


def _defaulted_params(fn):
    """(index or None for keyword-only, name) of every defaulted parameter."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _callee(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def unset_defaults(root=ROOT):
    """Defaulted parameters of module-level src/convexgeom functions that no
    call in src/, demos/ or perfbench/ sets, as module.function.parameter.

    Calls match by function name, and a call with *args or **kwargs sets
    every parameter.  A function passed as an argument to a module-level
    src function counts as called wherever that function calls the
    parameter it was passed as; passed to anything else, it escapes and
    every parameter counts as set.  A function bound to a local name and
    called through it is not followed."""
    trees = {p: ast.parse(p.read_text()) for p in root.glob("src/convexgeom/*.py")}
    funcs = {node.name: node for tree in trees.values() for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    callers = [*trees.values(), *(ast.parse(p.read_text())
                                  for d in ("demos", "perfbench")
                                  for p in (root / d).glob("*.py"))]
    set_by = {}        # function name -> positions and keywords some call sets
    escaped = set()

    def record(name, call):
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            escaped.add(name)
        got = set_by.setdefault(name, set())
        got.update(range(len(call.args)))
        got.update(k.arg for k in call.keywords)

    for tree in callers:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            record(_callee(call), call)
            callee = funcs.get(_callee(call))
            params = [a.arg for a in (*callee.args.posonlyargs, *callee.args.args)] \
                if callee else []
            passed = [*zip(params, call.args), *((k.arg, k.value) for k in call.keywords)]
            passed += [(None, a) for a in call.args[len(params):]]
            for param, value in passed:
                fn = getattr(value, "id", getattr(value, "attr", None))
                if fn is None:
                    continue
                if callee is None or param is None:
                    escaped.add(fn)
                    continue
                for inner in ast.walk(callee):
                    if isinstance(inner, ast.Call) and \
                            getattr(inner.func, "id", None) == param:
                        record(fn, inner)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in escaped:
                continue
            got = set_by.get(node.name, set())
            found += [f"{path.stem}.{node.name}.{arg}"
                      for index, arg in _defaulted_params(node)
                      if arg not in got and index not in got]
    return sorted(found)


def test_scan_finds_unset_defaults(tmp_path):
    src = tmp_path / "src" / "convexgeom"
    src.mkdir(parents=True)
    for folder in ("demos", "perfbench"):
        (tmp_path / folder).mkdir()
    (src / "a.py").write_text(
        "def f(x, y=1, z=2, *, w=3):\n    return f(x, 5)\n\n\n"
        "def g(x=0):\n    return x\n\n\n"
        "def h(x=0):\n    return x\n\n\n"
        "def k(x=0):\n    return x\n\n\n"
        "def m(x=0):\n    return x\n\n\n"
        "def apply(fn, arg):\n    return fn(arg)\n\n\n"
        "def both(fn):\n    return fn(1, 2)\n\n\n"
        "def p(x, y=0):\n    return x\n\n\n"
        "def q(x, y=0):\n    return x\n\n\n"
        "def r(x, y=0):\n    return x\n\n\n"
        "MAPPED = list(map(h, [1]))\n"
        "APPLIED = apply(p, 1), apply(fn=q, arg=2), both(fn=r)\n")
    (tmp_path / "demos" / "d.py").write_text(
        "from convexgeom.a import g, k, m\n"
        "g()\nk(x=1)\nm(*[1])\n")
    assert unset_defaults(tmp_path) == ["a.f.w", "a.f.z", "a.g.x", "a.p.y",
                                        "a.q.y"]
    (tmp_path / "perfbench" / "p.py").write_text(
        "from convexgeom import a\na.f(0, w=1)\n")
    assert unset_defaults(tmp_path) == ["a.f.z", "a.g.x", "a.p.y", "a.q.y"]


# Defaulted parameters kept on purpose although no caller sets them.
KEPT_DEFAULTS = {
    "graphs.emit_edge_list.labels":
        "the inverse of parse_edge_list, which returns the labels it read",
    "harness.nonhereditary_fixture_check.g":
        "a test seam: tests pass a graph the fixture facts must reject",
    "harness.verify_lemma.graphs":
        "the mirror of verify_theorem.graphs, which verify --graph6-file sets",
}


def test_no_unset_defaults():
    assert unset_defaults() == sorted(KEPT_DEFAULTS)


def _module_names(tree):
    """Names bound at the top level of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
    return names


def dangling_readme_references(root=ROOT):
    """`module.attr` mentions in README.md whose module is in src/convexgeom
    but binds no such name."""
    modules = {p.stem: _module_names(ast.parse(p.read_text()))
               for p in root.glob("src/convexgeom/*.py")}
    text = (root / "README.md").read_text()
    found = {f"{m}.{attr}" for m, attr in re.findall(r"`(\w+)\.(?!py`)(\w+)", text)
             if m in modules and attr not in modules[m]}
    return sorted(found)


def test_scan_finds_dangling_readme_references(tmp_path):
    src = tmp_path / "src" / "convexgeom"
    src.mkdir(parents=True)
    (src / "a.py").write_text("from .b import f\nX = 1\n\n\ndef g():\n    pass\n")
    (tmp_path / "README.md").write_text(
        "`a.f`, `a.g(s)`, `a.X`, `a.py`, `b.h`, `a.gone` and `a.also_gone(s)`\n")
    assert dangling_readme_references(tmp_path) == ["a.also_gone", "a.gone"]


def test_readme_references_resolve():
    assert dangling_readme_references() == []
