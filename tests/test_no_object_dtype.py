"""The package computes over F_p only, in int64: no module imports `fractions`,
and no code makes an object array except `Field.matmul`'s product at a prime
too large for int64 dot products.

No linter runs on this code base, so this scan is the check.  An object
dtype is the name `object` passed to a call (`dtype=object`,
`astype(object)`, `np.empty(n, object)`), the strings "O" or "object" passed
as a dtype, or `np.object_`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "amalgext").glob("*.py"))
ALLOWED = {"Field.matmul"}  # its exact product at large primes


def _is_object_dtype(node, as_dtype: bool) -> bool:
    if isinstance(node, ast.Name) and node.id == "object":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "object_":
        return True
    return as_dtype and isinstance(node, ast.Constant) and node.value in ("O", "object")


def _scopes(tree):
    """(node, qualified name of the function or class around it) for every node."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            stack.append((child, inner))


def rational_or_object_uses(source: str) -> list[tuple[int, str, str]]:
    """(line, enclosing scope, what) of each `fractions` import and object dtype."""
    found = []
    for node, scope in _scopes(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, scope, f"import {a.name}") for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            found.append((node.lineno, scope, f"from {node.module} import"))
        elif isinstance(node, ast.Call):
            astype = isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
            args = [(a, astype) for a in node.args]
            args += [(k.value, k.arg == "dtype") for k in node.keywords]
            found += [(node.lineno, scope, "object dtype") for a, as_dtype in args
                      if _is_object_dtype(a, as_dtype)]
        elif isinstance(node, ast.Attribute) and node.attr == "object_":
            found.append((node.lineno, scope, "np.object_"))
    return sorted(set(found))


def test_scan_finds_fractions_and_object_dtypes():
    source = ("import fractions\nfrom fractions import Fraction\nimport numpy as np\n"
              "class Field:\n"
              "    def matmul(self, a):\n        return a.astype(object)\n"
              "    def array(self, a):\n        return np.asarray(a, dtype=object)\n"
              "def f(a):\n    return a.astype('O'), np.empty(3, object), np.object_\n"
              "def g(a):\n    return object.__new__(type(a)), a.astype(int)\n")
    assert rational_or_object_uses(source) == [
        (1, "", "import fractions"), (2, "", "from fractions import"),
        (6, "Field.matmul", "object dtype"), (8, "Field.array", "object dtype"),
        (10, "f", "np.object_"), (10, "f", "object dtype")]


def test_the_package_has_no_rationals_and_no_object_arrays_outside_matmul():
    assert len(PACKAGE) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {what} in {scope or 'the module'}"
             for path in PACKAGE for line, scope, what in rational_or_object_uses(path.read_text())
             if scope not in ALLOWED]
    assert not found, "rational or object-dtype code:\n" + "\n".join(found)
    matmul = [u for path in PACKAGE for u in rational_or_object_uses(path.read_text())
              if u[1] in ALLOWED]
    assert matmul, "Field.matmul no longer makes an object array: drop it from ALLOWED"
