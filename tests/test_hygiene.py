"""Source hygiene: every imported name is used by the module that imports it.

No linter is installed, so this stdlib AST scan guards src/ and tests/.
Names an __init__.py lists in __all__ count as used (re-exports).
"""

import ast
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
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


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
