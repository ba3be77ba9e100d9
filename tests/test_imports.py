"""Every name a module imports is used in that module.

No linter runs on this code base, so this scan is the check.  The package's
__init__.py is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ([p for p in sorted((ROOT / "src" / "amalgext").glob("*.py")) if p.name != "__init__.py"]
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


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads.

    A name counts as read where it appears in an expression, including a
    quoted annotation such as -> "KModule".
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in _annotations(tree)
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in used)


def test_scan_finds_an_unused_import():
    source = ('import os\nfrom typing import Any, List as L\n'
              'def f(x: "Any") -> int:\n    return os.sep\n')
    assert unused_imports(source) == [(2, "L")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in SOURCES for line, name in unused_imports(path.read_text())]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
