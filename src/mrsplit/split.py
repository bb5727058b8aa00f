"""Edge-relation assignment and normalized relation operators.

A graph is partitioned into three relations by the score ordering: edges
along increasing score (an acyclic relation), edges along decreasing score
(its counterpart), and the remainder of tied endpoints.

Operator convention: row i of a relation operator holds the weights of the
arcs *arriving* at node i, i.e. entry [i, m] is nonzero when edge (m, i) is
in the relation. Row sums are therefore weighted in-degrees, and X' = A @ X
aggregates each node over its in-neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .graph import Graph, GraphError, in_degrees, is_dag, reverse
from .ordering import OrderingScores, order_by

RAW = "raw"
SYM_GCN = "sym_gcn"
ROW_MEAN = "row_mean"


@dataclass(frozen=True)
class Variant:
    """How a named model variant aggregates: normalization mode, whether the
    graph is split into (E1, E2, E3) or kept whole, and whether a layer adds
    a transform of the previous state (SAGE's self term)."""

    mode: str
    split: bool
    self_term: bool

    @property
    def relations(self) -> int:
        return 3 if self.split else 1


VARIANTS = {
    "gcn": Variant(SYM_GCN, split=False, self_term=False),
    "mrs_gcn": Variant(SYM_GCN, split=True, self_term=False),
    "sage": Variant(ROW_MEAN, split=False, self_term=True),
    "mrs_sage": Variant(ROW_MEAN, split=True, self_term=True),
}


@dataclass(frozen=True)
class RelationOperator:
    """Sparse n x n aggregation matrix for one edge relation.

    The CSR arrays are read-only, so an operator can be shared between
    callers without any of them changing it.
    """

    matrix: sparse.csr_matrix
    mode: str

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()


@dataclass(frozen=True)
class MultiRelGraph:
    """A graph split into (E1, E2, E3) plus the ordering that produced it.

    normalize() keeps the operators it builds in _operators, one entry per
    mode; the cache takes no part in equality, hashing or repr.
    """

    base: Graph
    relations: tuple[tuple[tuple[int, int, float], ...], ...]
    ordering: OrderingScores
    _operators: dict[str, tuple[RelationOperator, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def relation_graph(self, k: int) -> Graph:
        return Graph(n=self.base.n, edges=self.relations[k], undirected=False)


def split_edges(g: Graph, scores: OrderingScores) -> MultiRelGraph:
    """Assign each edge (i, j) to E1 if r_i < r_j, E2 if r_j < r_i, else E3.

    E1 and E2 are acyclic by construction (edges follow a strict scalar
    order); this is re-checked as an assertion. Self-loops always land in E3.
    """
    if len(scores) != g.n:
        raise ValueError(
            f"scores length {len(scores)} does not match node count {g.n}"
        )
    r = scores.scores
    e1, e2, e3 = [], [], []
    for src, dst, w in g.edges:
        if r[src] < r[dst]:
            e1.append((src, dst, w))
        elif r[src] > r[dst]:
            e2.append((src, dst, w))
        else:
            e3.append((src, dst, w))
    mrg = MultiRelGraph(
        base=g,
        relations=(tuple(e1), tuple(e2), tuple(e3)),
        ordering=scores,
    )
    for k in (0, 1):
        acyclic, _ = is_dag(mrg.relation_graph(k))
        assert acyclic, "score-filtered relation must be acyclic"
    return mrg


def _operator_from_edges(
    n: int,
    edges: tuple[tuple[int, int, float], ...],
    mode: str,
    degrees: np.ndarray,
) -> RelationOperator:
    """Build the receiver-row operator with the 0-convention for degree-0 rows."""
    rows = np.array([dst for _, dst, _ in edges], dtype=np.int64)
    cols = np.array([src for src, _, _ in edges], dtype=np.int64)
    weights = np.array([w for _, _, w in edges], dtype=np.float64)
    deg = degrees.astype(np.float64)
    if mode == RAW:
        vals = weights
    elif mode == ROW_MEAN:
        vals = np.where(deg[rows] > 0, weights / np.maximum(deg[rows], 1.0), 0.0)
    elif mode == SYM_GCN:
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
        vals = weights * inv_sqrt[rows] * inv_sqrt[cols]
    else:
        raise ValueError(f"unknown normalization mode: {mode!r}")
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return RelationOperator(matrix=mat, mode=mode)


def normalize(
    mrg: MultiRelGraph, mode: str = SYM_GCN
) -> tuple[RelationOperator, ...]:
    """Normalized operators for E1, E2, E3 using *full base-graph* in-degrees.

    With sym_gcn the three operators sum entrywise to the classic symmetric
    GCN operator of the unsplit graph; the split only reweights which
    transformation each message passes through. Each mode is built on its
    first request and the same operators are returned on every later one.
    """
    ops = mrg._operators.get(mode)
    if ops is None:
        deg = in_degrees(mrg.base)
        ops = tuple(
            _operator_from_edges(mrg.base.n, rel_edges, mode, deg)
            for rel_edges in mrg.relations
        )
        mrg._operators[mode] = ops
    return ops


def operator_for_graph(g: Graph, mode: str = RAW) -> RelationOperator:
    """Single-relation operator for a whole graph, degrees from g itself."""
    return _operator_from_edges(g.n, g.edges, mode, in_degrees(g))


def variant_operators(
    g: Graph,
    variant: str,
    ordering: str,
    seed: int,
    X: Optional[np.ndarray] = None,
) -> tuple[RelationOperator, ...]:
    """The relation operators a variant aggregates over on g: one whole-graph
    operator, or the three split operators under the named ordering."""
    spec = VARIANTS[variant]
    if not spec.split:
        return (operator_for_graph(g, spec.mode),)
    return normalize(split_edges(g, order_by(ordering, g, seed, X)), spec.mode)


def dar_pair_from_dag(g: Graph) -> tuple[RelationOperator, RelationOperator]:
    """Mean-normalized operators of a DAG and its reverse.

    Errors when some node has no incoming edge in either direction (an
    isolated node), since the rank-preservation guarantee assumes every
    node receives messages from at least one of the two relations.
    """
    acyclic, _ = is_dag(g)
    if not acyclic:
        raise GraphError("dar_pair_from_dag requires a DAG")
    rev = reverse(g)
    covered = in_degrees(g) + in_degrees(rev)
    if g.n and covered.min() == 0:
        lonely = int(np.argmin(covered))
        raise GraphError(
            f"node {lonely} has no incoming edge in either direction"
        )
    return operator_for_graph(g, ROW_MEAN), operator_for_graph(rev, ROW_MEAN)


def split_summary(mrg: MultiRelGraph) -> dict:
    """JSON-ready view of a split: arc lists per relation plus the scores."""
    return {
        "E1": [[s, d] for s, d, _ in mrg.relations[0]],
        "E2": [[s, d] for s, d, _ in mrg.relations[1]],
        "E3": [[s, d] for s, d, _ in mrg.relations[2]],
        "scores": list(mrg.ordering.scores),
        "ordering": mrg.ordering.method,
    }
