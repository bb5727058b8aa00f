"""Split any graph into acyclic edge relations, run multi-relational
message passing on them, and verify the resulting rank and smoothing
guarantees with executable property checks."""

from .graph import (
    Graph,
    GraphError,
    graph_from_pairs,
    is_dag,
    load_edge_list,
    longest_path_length,
    reverse,
)
from .ordering import (
    OrderingScores,
    order_degree,
    order_feature_sum,
    order_ppr,
    order_random,
)
from .split import (
    MultiRelGraph,
    dar_pair_from_dag,
    normalize,
    operator_for_graph,
    split_edges,
)

# The operator layer imports scipy, so its exports load on first use: importing
# mrsplit, or splitting a graph, needs numpy alone.
_LAZY = {
    "convolution": ("GatedGcnParams", "GatParams", "SageParams", "mrs_gat", "mrs_gatedgcn",
                    "mrs_gcn", "mrs_gin", "mrs_linear_layer", "mrs_sage"),
    "diagnostics": ("dirichlet_energy", "exact_rank_small", "in_degree_matrix", "numeric_rank",
                    "rod", "structurally_independent"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A lazy export, read from its home module on every access."""
    from importlib import import_module

    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
