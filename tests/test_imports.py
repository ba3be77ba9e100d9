"""Every name a module imports is used in that module, and every private
function, class, method or module-level name of the package is used in the
module that defines it.

No linter runs on this code base, so these scans are the check.  The
package's __init__.py is skipped by the import scan: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "amalgext").glob("*.py"))
SOURCES = ([p for p in PACKAGE if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None:
                    yield a.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree) -> set[str]:
    """The names that appear in an expression, including a quoted annotation
    such as -> "KModule"."""
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in _annotations(tree)
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = _names_read(tree)
    return sorted((line, name) for line, name in bound if name not in used)


def unused_private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private (_-prefixed, not dunder) function, class,
    method or module-level assigned name the module never reads, by name or as
    an attribute (self._f)."""
    tree = ast.parse(source)
    defined = [(node.lineno, node.name) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    targets = [t for node in tree.body for t in (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, ast.AnnAssign) else [])]
    defined += [(n.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    defined = [(line, name) for line, name in defined
               if name.startswith("_") and not name.endswith("__")]
    used = _names_read(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted((line, name) for line, name in defined if name not in used)


def test_scan_finds_an_unused_import():
    source = ('import os\nfrom typing import Any, List as L\n'
              'def f(x: "Any") -> int:\n    return os.sep\n')
    assert unused_imports(source) == [(2, "L")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in SOURCES for line, name in unused_imports(path.read_text())]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_scan_finds_an_unused_private_definition():
    source = ('class _Kept:\n    def __init__(self):\n        self._used()\n'
              '    def _used(self):\n        pass\n    def _left(self):\n        pass\n'
              'def _helper() -> "_Kept":\n    pass\n'
              'def _orphan():\n    pass\n'
              '_READ, _UNREAD = 1, 2\n_ALONE: int = 3\n'
              'kept = _helper(_READ)\n')
    assert unused_private_definitions(source) == [(6, "_left"), (10, "_orphan"),
                                                  (12, "_UNREAD"), (13, "_ALONE")]


def test_no_package_module_defines_a_private_name_it_never_uses():
    assert len(PACKAGE) > 10
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in PACKAGE for line, name in unused_private_definitions(path.read_text())]
    assert not unused, "private but never used in its module:\n" + "\n".join(unused)
