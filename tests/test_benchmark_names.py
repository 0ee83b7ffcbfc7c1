"""The per-layer metrics of `perfbench` read functions of surfrep by name.

`perfbench/harness.py` derives each per-layer metric from the spans of the
functions it names as "module.function" strings, and the tracer wraps only
the public functions that a surfrep module defines itself.  A function
that is renamed, moved or made private silently zeroes its metric, so
these tests read the names out of the harness source, without importing
or changing it, and check them against the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import surfrep
from surfrep.corpus import tangent_direction

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _harness_function_names():
    """Every "module.function" the harness hands to `fn` or `ms`, directly
    or through its module-level tuples of names."""
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("fn", "ms") and node.args
                and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("RANK_DECISIONS", "ENCODERS")):
            names.update(elt.value for elt in node.value.elts)
    return sorted(names)


def test_the_harness_names_functions():
    names = _harness_function_names()
    assert "deformation.solve_next_order" in names
    assert "deformation.order_residuals" in names
    assert len(names) >= 20


# Harness names whose function left surfrep on purpose, each with its
# reason; the metric reads 0 until the harness drops the name too.
_RETIRED = {
    # the obstruction count is read off the centralizer by duality; the
    # SVD of the cokernel is the tests' oracle (tests/oracles.py)
    "cohomology.relative_h2",
}


@pytest.mark.parametrize("name", _harness_function_names())
def test_each_harness_name_is_a_traced_surfrep_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"surfrep.{layer}")
    obj = getattr(module, attr, None)
    if name in _RETIRED:
        assert obj is None, f"{name} is retired but still in surfrep"
        return
    assert obj is not None, f"{name} is gone from surfrep"
    # what the tracer wraps: public, callable, defined in that module
    assert not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
    assert obj.__module__ == module.__name__, f"{name} is defined in {obj.__module__}"


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_one_deform_operation_reaches_every_deformation_metric(witness_u2):
    # the api-deform operation: tangent_direction -> build_deformation(4)
    # -> verify_deformation, under the benchmark's own tracer
    tracer = _benchmark_tracer()
    rho = witness_u2.representation
    tracer.install()
    try:
        state = surfrep.build_deformation(rho, tangent_direction(rho, 0), order=4)
        surfrep.verify_deformation(state)
    finally:
        tracer.uninstall()
    functions, _ = tracer.summary()
    for name in _harness_function_names():
        if name.startswith("deformation."):
            assert functions.get(name, {}).get("calls", 0) > 0, name
    # one residual evaluation per order: at most 4 for an order-4 build
    assert functions["deformation.solve_next_order"]["calls"] == 3
    assert 0 < functions["deformation.order_residuals"]["calls"] <= 4
