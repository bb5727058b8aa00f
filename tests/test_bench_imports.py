"""Every package attribute the benchmark workloads use still resolves.

bench/workloads.py reaches the package as ``module.attr`` and fetches the
kernels of KERNEL_CALLS by name; a deletion or rename in the package would
otherwise only show up when the benchmark runs. The file is read as a syntax
tree, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
TREE = ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _package_modules():
    return {
        alias.asname or alias.name
        for node in ast.walk(TREE)
        if isinstance(node, ast.ImportFrom) and node.module == "mrsplit"
        for alias in node.names
    }


def _attribute_refs():
    modules = _package_modules()
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(TREE)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    )


def _kernel_calls():
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "KERNEL_CALLS" for t in node.targets
        ):
            return [("convolution", name) for name, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/workloads.py defines no KERNEL_CALLS")


def test_workloads_reach_the_package():
    assert _package_modules() and _attribute_refs() and _kernel_calls()


@pytest.mark.parametrize("module, name", _attribute_refs() + _kernel_calls())
def test_benchmark_attribute_resolves(module, name):
    home = importlib.import_module(f"mrsplit.{module}")
    assert callable(getattr(home, name))
