"""Per-function spans for the traced benchmark run.

Wrappers are installed from outside the package: every ``mrsplit`` module
namespace (and class) that binds a traced function gets the same wrapper,
so a call through ``cli.split_edges`` and one through ``split.split_edges``
land in one span name. Spans are aggregated in memory per function (calls,
inclusive and self time) and per caller edge, then read once at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> traced functions. Dotted names are methods: "Graph.init" is the
# dataclass validation hook ``Graph.__post_init__``.
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("load_edge_list", "Graph.init", "is_dag", "in_degrees"),
    "ordering": ("order_degree", "order_ppr", "order_random"),
    "split": (
        "split_edges",
        "normalize",
        "operator_for_graph",
        "split_summary",
        "dar_pair_from_dag",
    ),
    "convolution": (
        "mrs_gcn",
        "mrs_sage",
        "mrs_gin",
        "mrs_gat",
        "mrs_gatedgcn",
        "mrs_linear_layer",
        "glorot",
    ),
    "diagnostics": (
        "rod",
        "dirichlet_energy",
        "numeric_rank",
        "structurally_independent",
        "in_degree_matrix",
        "verify_rank_theorem_random_splits",
        "verify_independence_on_constructions",
        "verify_zero_convergence",
        "verify_dag_pair_rank",
        "verify_ergodic_rank_one",
        "verify_dar_independent_pairs",
    ),
    "ensembles": (
        "random_connected_graph",
        "random_connected_dag",
        "molecule_like_graph",
    ),
    "autodiff": ("matmul", "spmm", "add", "relu", "mae_loss", "backward"),
    "trainer": ("compile_task", "forward", "train", "make_synthetic_task"),
    "trajectories": ("rod_trace",),
    "cli": ("main",),
}

_METHOD_ATTRS = {"init": "__post_init__"}

ROOT = "bench.pass"


def _package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "mrsplit" or name.startswith("mrsplit."))
    ]


def wrapped_bindings() -> list[str]:
    """Every mrsplit binding that currently holds a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, "__bench_traced__"):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, type):
                for cattr, cval in vars(val).items():
                    if hasattr(cval, "__bench_traced__"):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


class Tracer:
    """Installs span wrappers, aggregates them, and restores the originals."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self.normalized_bases: dict[int, object] = {}
        self._stack: list[list] = []  # [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, name)] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, dur: float) -> None:
        self._stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, time.perf_counter() - t0)

    def _wrap(self, name: str, fn):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if name == "split.normalize":
                mrg = args[0] if args else kwargs["mrg"]
                # Holding the graph keeps its id from being reused.
                tracer.normalized_bases[id(mrg.base)] = mrg.base
            frame = tracer._enter(name)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(frame, perf() - t0)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__bench_traced__ = fn
        return wrapper

    def install(self) -> None:
        import mrsplit  # noqa: F401  (loads every submodule)

        modules = _package_modules()
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"mrsplit.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    attr = _METHOD_ATTRS[meth]
                    original = vars(cls)[attr]
                    self._patch(cls, attr, original, self._wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; returns bindings that did not restore."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner)[attr] is not original
        ]
        self._patches.clear()
        return bad + wrapped_bindings()
