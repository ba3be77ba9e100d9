"""FiniteGroup and KModule are built past their checks in one place each.

FiniteGroup(table) and KModule(...) check outside input.  What is valid by
construction (a closure of permutations, a quotient, a trivial module, a
restriction, a module over K/N) goes through the class's _unchecked, which
skips __init__ with __new__.  This scan refuses any other __new__ of the two
classes in `src/amalgext/`, so that what is trusted stays in one place per
class: `X.__new__` or `object.__new__(X)` for X a class's name, and
`cls.__new__` or `self.__new__` inside the class.
"""

import ast

from test_no_object_dtype import PACKAGE, ROOT, _scopes

CLASSES = {"FiniteGroup", "KModule"}
ALLOWED = {f"{name}._unchecked" for name in CLASSES}


def _names(*nodes) -> set[str]:
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def unchecked_constructions(source: str) -> list[tuple[int, str]]:
    """(line, enclosing scope) of each __new__ of FiniteGroup or KModule."""
    found = []
    for node, scope in _scopes(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "__new__":
            named = _names(node.func.value, *node.args)
            inside = scope.split(".")[0] in CLASSES and named & {"cls", "self"}
            if named & CLASSES or inside:
                found.append((node.lineno, scope))
    return sorted(found)


def test_scan_finds_each_way_past_init():
    source = ("class FiniteGroup:\n"
              "    @classmethod\n    def _unchecked(cls):\n        return cls.__new__(cls)\n"
              "    def copy(self):\n        return type(self).__new__(type(self))\n"
              "def f():\n    return FiniteGroup.__new__(FiniteGroup)\n"
              "def g():\n    return object.__new__(KModule), object.__new__(list)\n"
              "class Span:\n    def copy(self):\n        return object.__new__(type(self))\n")
    assert unchecked_constructions(source) == [
        (4, "FiniteGroup._unchecked"), (6, "FiniteGroup.copy"), (8, "f"), (10, "g")]


def test_the_package_builds_past_the_checks_only_in_unchecked():
    assert len(PACKAGE) > 10
    found = [(path, line, scope) for path in PACKAGE
             for line, scope in unchecked_constructions(path.read_text())]
    outside = [f"{path.relative_to(ROOT)}:{line}: __new__ in {scope or 'the module'}"
               for path, line, scope in found if scope not in ALLOWED]
    assert not outside, "built past the checks outside _unchecked:\n" + "\n".join(outside)
    assert sorted(scope for _, _, scope in found) == sorted(ALLOWED)
