"""The runtime contract, read off the source: the package imports only the
standard library and itself, and computes with no floats.

Each module of `src/circlespec` is parsed with `ast`; nothing is imported
or run.  A float can still arise from an expression such as `1 / 2`; these
checks catch the names and literals through which floats usually enter.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "circlespec").glob("*.py"))
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"__future__", "circlespec"}
TRIGONOMETRIC = {"sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
                 "asinh", "acosh", "atanh", "degrees", "radians"}
FLOAT_MATH = {"sqrt", "cbrt", "exp", "exp2", "expm1", "pow", "fsum", "hypot", "dist", "isclose",
              "pi", "e", "tau", "inf", "nan"} | TRIGONOMETRIC


def is_float_math(name: str) -> bool:
    return name in FLOAT_MATH or name.startswith("log")


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "circle.py", "spectral.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_runtime_contract(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    faults = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            faults += [f"{where} imports {a.name}" for a in node.names
                       if a.name.split(".")[0] not in ALLOWED_ROOTS]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] not in ALLOWED_ROOTS:
                faults.append(f"{where} imports from {'.' * node.level}{node.module or ''}")
            if node.module == "math":
                faults += [f"{where} imports math.{a.name}" for a in node.names if is_float_math(a.name)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            faults.append(f"{where} has the literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            faults.append(f"{where} names {node.id}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and is_float_math(node.attr)):
            faults.append(f"{where} uses math.{node.attr}")
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize(
    "source, fault",
    [
        ("import numpy", "imports numpy"),
        ("from sympy import ZZ", "imports from sympy"),
        ("from . import linalg", "imports from ."),
        ("x = 0.5", "literal 0.5"),
        ("x = 2j", "literal 2j"),
        ("x = float(1)", "names float"),
        ("import math\nx = math.sqrt(2)", "uses math.sqrt"),
        ("import math\nx = math.log2(8)", "uses math.log2"),
        ("from math import pi", "imports math.pi"),
    ],
)
def test_guard_reports_each_kind_of_fault(source, fault, tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(source, encoding="utf-8")
    with pytest.raises(AssertionError, match=fault):
        test_module_keeps_the_runtime_contract(path)

