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
from .convolution import (
    GatedGcnParams,
    GatParams,
    SageParams,
    mrs_gat,
    mrs_gatedgcn,
    mrs_gcn,
    mrs_gin,
    mrs_linear_layer,
    mrs_sage,
)
from .diagnostics import (
    dirichlet_energy,
    exact_rank_small,
    in_degree_matrix,
    numeric_rank,
    rod,
    structurally_independent,
    verify_independence_theorem,
    verify_rank_theorem,
)

__version__ = "0.1.0"
