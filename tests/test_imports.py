"""Every name a library module imports is used in that module, no library
module imports scipy or calls `np.unique` or `np.add.at`, the code layout
of expansions stays in `chaos`, and the package loads each exported name
from its home module on first use."""

import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import grosslap
from conftest import src_env

SRC = Path(__file__).resolve().parents[1] / "src" / "grosslap"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "path")]


def _scipy_imports(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if n.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert _scipy_imports(ast.parse(path.read_text())) == []


def test_scipy_import_is_found():
    tree = ast.parse("import os, scipy.linalg\n"
                     "def f():\n"
                     "    from scipy.optimize import minimize_scalar\n"
                     "from .scipy import x\n")
    assert _scipy_imports(tree) == [(1, "scipy.linalg"),
                                    (3, "scipy.optimize")]


def _unique_and_add_at_calls(tree: ast.Module) -> list:
    """(line, name) of every call of `np.unique` or `np.add.at`, under any
    name numpy is bound to: terms are summed per code by
    `chaos.sum_by_code` alone, and `np.unique` loads numpy's masked
    arrays."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name.split(".", 1)[-1] in ("unique", "add.at"):
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unique_or_add_at_call(path):
    assert _unique_and_add_at_calls(ast.parse(path.read_text())) == []


def test_unique_and_add_at_calls_are_found():
    tree = ast.parse("import numpy as np\n"
                     "codes, slot = np.unique(c, return_inverse=True)\n"
                     "numpy.add.at(values, slot, terms)\n"
                     "np.add(a, b)\n"
                     "sorted(set(c))\n")
    assert _unique_and_add_at_calls(tree) == [(2, "np.unique"),
                                              (3, "numpy.add.at")]


# The code layout of expansions stays behind `chaos`; `.coeffs`, the dict
# view of an expansion's terms, is read only by `chaos`.
LAYOUT_NAMES = {"_box", "_encode", "_decode"}
COEFFS_READERS = {"chaos.py"}


def _layout_references(tree: ast.Module) -> list:
    """(line, name) of every use of a layout name and every `.coeffs` read."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = {node.attr} & (LAYOUT_NAMES | {"coeffs"})
        elif isinstance(node, ast.Name):
            names = {node.id} & LAYOUT_NAMES
        elif isinstance(node, ast.alias):
            names = {node.name, node.asname} & LAYOUT_NAMES
        else:
            continue
        found += [(node.lineno, name) for name in names]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_code_layout_stays_in_chaos(path):
    found = _layout_references(ast.parse(path.read_text()))
    if path.name != "chaos.py":
        assert [n for n in found if n[1] in LAYOUT_NAMES] == []
    if path.name not in COEFFS_READERS:
        assert [n for n in found if n[1] == "coeffs"] == []


def test_layout_reference_is_found():
    tree = ast.parse("from .chaos import _box as b, _decode\n"
                     "coeffs = phi.coeffs\n"
                     "y = chaos._encode(coeffs)\n")
    assert _layout_references(tree) == [(1, "_box"), (1, "_decode"),
                                        (2, "coeffs"), (3, "_encode")]


EXPORTED = [
    "DISTRIBUTION", "DegreeError", "DimensionMismatchError",
    "EvolutionSolution", "Expansion2", "ProcessSpec", "RoleError", "TEST",
    "YoungFunctionSpec", "apply_operator", "chaos",
    "classical_quantum_bridge", "conjugate_eval", "contract_full",
    "conv_exp", "convolve_dist_dist", "convolve_dist_test", "delta0",
    "dual_pair", "evaluate", "evolution", "exponential_vector",
    "gaussian_heat_kernel", "gross", "gross_distribution", "gross_test",
    "laplace", "multiplication_operator", "pointwise_product",
    "quantum_gross", "quantum_op", "solve", "solve_qsde", "symbol",
    "tensor_core", "theta_n", "trace_distribution", "translate", "vacuum",
    "young",
]
SUBMODULES = ["chaos", "evolution", "gross", "quantum_op", "tensor_core",
              "young"]


def test_package_exports_are_pinned():
    assert sorted(grosslap.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(grosslap))


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_its_home_modules_object(name):
    value = getattr(grosslap, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"grosslap.{name}")
        return
    homes = [m for m in SUBMODULES
             if hasattr(importlib.import_module(f"grosslap.{m}"), name)]
    assert homes
    for m in homes:
        assert getattr(importlib.import_module(f"grosslap.{m}"), name) \
            is value


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        grosslap.nope


def test_package_import_loads_no_numpy():
    # A fresh interpreter: `import grosslap` loads no submodule, and a
    # submodule resolves as an attribute without being imported first.
    code = "\n".join([
        "import json, sys",
        "import grosslap",
        "before = sorted(m for m in sys.modules if m.startswith('grosslap'))",
        "spec = grosslap.young.YoungFunctionSpec('gaussian')",
        "value = grosslap.young.theta_n(spec, 2)",
        "print(json.dumps([before, value, 'numpy' in sys.modules]))",
    ])
    res = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    before, value, numpy_loaded = json.loads(res.stdout)
    assert before == ["grosslap"]
    assert value == pytest.approx(math.e)
    assert numpy_loaded is False
