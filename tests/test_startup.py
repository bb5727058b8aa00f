"""What a fresh process imports: the split path runs on numpy alone, and the
commands that build operators load scipy before their first fork.

Each check runs in a new interpreter, since the test process has long since
imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mrsplit

SRC = str(Path(mrsplit.__file__).resolve().parents[1])
GRAPH = str(Path(__file__).with_name("golden") / "graph.tsv")

# The package exports that live in modules which import scipy.
LAZY_EXPORTS = {
    "convolution": (
        "GatedGcnParams", "GatParams", "SageParams", "mrs_gat", "mrs_gatedgcn",
        "mrs_gcn", "mrs_gin", "mrs_linear_layer", "mrs_sage",
    ),
    "diagnostics": (
        "dirichlet_energy", "exact_rank_small", "in_degree_matrix", "numeric_rank",
        "rod", "structurally_independent",
    ),
}


def _fresh(code: str):
    """What a new interpreter running code prints on its last line, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_SPLIT_ON_NUMPY = """\
import importlib, json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import mrsplit
after_import = scipy_modules()
from mrsplit import cli
for ordering in ("degree", "ppr", "random"):
    argv = ["split", "--input", {graph!r}, "--ordering", ordering, "--output", os.devnull]
    assert cli.main(argv) == 0, ordering
after_split = scipy_modules()

from mrsplit import mrs_gcn, rod
from mrsplit import convolution, diagnostics
assert mrs_gcn is convolution.mrs_gcn and rod is diagnostics.rod
for module, names in {lazy!r}.items():
    home = importlib.import_module("mrsplit." + module)
    for name in names:
        assert getattr(mrsplit, name) is getattr(home, name), name
        assert name not in vars(mrsplit), name + " was cached in the package"
try:
    mrsplit.no_such_name
except AttributeError as exc:
    unknown = str(exc)
else:
    unknown = None
print(json.dumps({{"after_import": after_import, "after_split": after_split,
                  "dir": dir(mrsplit), "unknown": unknown}}))
"""


def test_import_and_split_load_no_scipy():
    got = _fresh(_SPLIT_ON_NUMPY.format(graph=GRAPH, lazy=LAZY_EXPORTS))
    assert got["after_import"] == []
    assert got["after_split"] == []
    for names in LAZY_EXPORTS.values():
        assert set(names) <= set(got["dir"])
    assert got["unknown"] == "module 'mrsplit' has no attribute 'no_such_name'"


_SCIPY_BEFORE_FORK = """\
import json, os, sys
from mrsplit import _pool

real = _pool._fork_map
loaded = []

def watched(fn, items):
    loaded.append("scipy.sparse" in sys.modules)
    return real(fn, items)

_pool._fork_map = watched
from mrsplit import cli
assert not {"mrsplit.diagnostics", "mrsplit.trainer", "mrsplit.trajectories"} & set(sys.modules)
for argv in (
    ["rod-trace", "--graphs", "2", "--layers", "2", "--dim", "2"],
    ["verify", "--trials", "2"],
    ["train", "--count", "2", "--layers", "1", "--dim", "2", "--epochs", "1",
     "--model-seeds", "1"],
):
    assert cli.main([*argv, "--output", os.devnull]) == 0, argv
print(json.dumps(loaded))
"""


def test_operator_commands_load_scipy_before_the_first_fork():
    assert _fresh(_SCIPY_BEFORE_FORK) == [True, True, True]
