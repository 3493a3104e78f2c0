"""The package computes with integers and fractions only.

No module under src/gordian may hold a float or complex literal, name the
float or complex type, import math or cmath, or take from math anything but
its integer functions.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "gordian").glob("*.py"))
# math functions on integers; ceil and floor also give exact integers for Fractions.
INTEGER_MATH = {"ceil", "comb", "floor", "gcd", "isqrt", "lcm"}


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name in ("math", "cmath")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            found += [
                (node.lineno, f"from {node.module} import {a.name}")
                for a in node.names
                if node.module == "cmath" or a.name not in INTEGER_MATH
            ]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_float(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


def test_guard_sees_every_kind_of_float_use():
    assert {"signature.py", "sturm.py", "circle.py"} <= {p.name for p in MODULES}
    code = (
        "import math\n"
        "from math import cos, gcd\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = 2j\n"
        "def f():\n"
        "    import cmath\n"
        "from math import isqrt, lcm\n"
    )
    assert [line for line, _ in float_uses(ast.parse(code))] == [1, 2, 3, 4, 5, 7]
