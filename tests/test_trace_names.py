"""Every function the benchmark tracer wraps still exists under its name.

bench/tracer.py names traced functions as strings; a rename in the package
would otherwise only show up when the benchmark runs with tracing on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# The tracer's dotted names are methods; "init" is the dataclass hook.
METHOD_ATTRS = {"init": "__post_init__"}


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in _layers().items() for name in names],
)
def test_traced_name_resolves(module, name):
    home = importlib.import_module(f"mrsplit.{module}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert METHOD_ATTRS[meth] in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, name))
