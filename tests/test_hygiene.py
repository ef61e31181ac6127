"""Source hygiene: every imported name is used by the module that imports
it, no library function exists only for the tests, and every `module.attr`
that README.md names exists.

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
    """(name, module path, enclosing top-level definition or None) for every
    name read, attribute taken or string constant in a module."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, path, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, owner
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value, path, owner


def functions_only_tests_use(root=ROOT):
    """Module-level functions of src/convexgeom that only tests use.  A use
    is a reference from another src/ module or from its own module outside
    its body, an __all__ entry, or a mention in demos/ or perfbench/."""
    trees = {p: ast.parse(p.read_text()) for p in root.glob("src/convexgeom/*.py")}
    outside = " ".join(p.read_text() for d in ("demos", "perfbench")
                       for p in (root / d).glob("*.py"))
    tests = " ".join(p.read_text() for p in (root / "tests").glob("*.py"))
    exported = set().union(*map(_exported, trees.values()))
    users = {}
    for path, tree in trees.items():
        for name, where, owner in _references(path, tree):
            users.setdefault(name, set()).add((where, owner))
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            word = re.compile(rf"\b{name}\b")
            used = (name in exported or word.search(outside)
                    or users.get(name, set()) - {(path, name)})
            if not used and word.search(tests):
                found.append(f"{path.stem}.{name}")
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
    (tmp_path / "tests" / "test_a.py").write_text(
        "from convexgeom.a import helper, shown, used\n")
    assert functions_only_tests_use(tmp_path) == ["a.helper", "a.shown"]
    (tmp_path / "demos" / "d.py").write_text("from convexgeom.a import shown\n")
    assert functions_only_tests_use(tmp_path) == ["a.helper"]


def test_no_test_only_functions():
    assert functions_only_tests_use() == []


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
