"""The program names that the benchmark harness in perfbench/ relies on.

perfbench/tracer.py wraps functions by (module, attribute) name, and
perfbench/worker.py and checks.py call the package through `uq.<name>`.
A rename in the package would break the benchmark only when it runs, so
these tests read those files (parsing them, without importing or writing
anything there) and resolve every name on the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import uqcomod
from uqcomod import cli, hopfcore

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_constant(path, name):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {path.name}")


def _attributes_of(path, var):
    """Every name read as `var.<name>` in the file."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == var}


def test_every_traced_span_resolves_on_the_package():
    spans = _module_constant(BENCH / "tracer.py", "SPANS")
    assert spans
    for modname, attr, _ in spans:
        mod = importlib.import_module(f"uqcomod.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer replaces the method in the class dictionary
            assert meth in vars(getattr(mod, cls_name)), (modname, attr)
        else:
            assert callable(getattr(mod, attr)), (modname, attr)


def test_traced_suites_and_counters_resolve():
    for suite in _module_constant(BENCH / "tracer.py", "SUITES"):
        assert suite in cli._SUITE_FUNCS, suite
    assert callable(hopfcore.t2_mul)
    assert callable(hopfcore.FiniteAlgebra.mul_vec)
    # the tracer's counting __init__ takes exactly these arguments
    params = list(inspect.signature(hopfcore.FiniteAlgebra.__init__).parameters)
    assert params == ["self", "fld", "labels", "mul", "unit"]


def test_names_the_worker_and_checks_call_exist():
    called = (_attributes_of(BENCH / "worker.py", "uq")
              | _attributes_of(BENCH / "checks.py", "uq"))
    assert {"build_gr_uq", "build_sigma", "build_sigma_inverse", "build_uq",
            "zoo_params", "build_family", "deform_family", "loewy_filtration",
            "morita_invariant_d", "field", "cli"} <= called
    for name in called:
        assert hasattr(uqcomod, name), name
    assert callable(uqcomod.cli.main)
