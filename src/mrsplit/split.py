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

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .graph import Graph, GraphError, in_degrees, is_dag, out_degrees, reverse
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
class MultiRelGraph:
    """A graph's arcs in relations: (E1, E2, E3) plus the ordering that
    produced them, or one relation of every arc with no ordering.

    relations[k] holds the indices of relation k's arcs in base, in base arc
    order, as a read-only array. The relations are a function of base and
    ordering, so relations takes no part in equality or hashing. normalize()
    keeps the operators it builds in _operators, one entry per mode; the
    cache takes no part in equality, hashing or repr.
    """

    base: Graph
    relations: tuple[np.ndarray, ...] = field(compare=False)
    ordering: Optional[OrderingScores]
    _operators: dict[str, tuple[sparse.csr_matrix, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )


def _read_only(arcs: np.ndarray) -> np.ndarray:
    arcs.flags.writeable = False
    return arcs


def read_only_operator(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    """mat, with its data, indices and indptr arrays made read-only."""
    for arr in (mat.data, mat.indices, mat.indptr):
        _read_only(arr)
    return mat


def whole_graph(g: Graph) -> MultiRelGraph:
    """g unsplit: one relation that holds every arc (a base convolution)."""
    every_arc = _read_only(np.arange(g.num_edges))
    return MultiRelGraph(base=g, relations=(every_arc,), ordering=None)


def split_edges(g: Graph, scores: OrderingScores) -> MultiRelGraph:
    """Assign each edge (i, j) to E1 if r_i < r_j, E2 if r_j < r_i, else E3.

    E1 and E2 are acyclic by construction: their arcs follow a strict
    scalar order. Self-loops and arcs between tied scores land in E3.
    """
    if len(scores) != g.n:
        raise ValueError(
            f"scores length {len(scores)} does not match node count {g.n}"
        )
    r = scores.as_array()
    up, down = r[g.src] < r[g.dst], r[g.src] > r[g.dst]
    relations = tuple(_read_only(np.flatnonzero(m)) for m in (up, down, ~(up | down)))
    return MultiRelGraph(base=g, relations=relations, ordering=scores)


def normalize(mrg: MultiRelGraph, mode: str) -> tuple[sparse.csr_matrix, ...]:
    """Normalized operators for E1, E2, E3 using *full base-graph* in-degrees.

    With sym_gcn the three operators sum entrywise to the classic symmetric
    GCN operator of the unsplit graph; the split only reweights which
    transformation each message passes through. The mode's value of each
    base arc is computed once, with a degree-0 node weighing 0, and each
    relation's read-only receiver-row CSR operator takes its own arcs'
    values. Each mode is built on its first request and the same operators
    are returned on every later one.
    """
    ops = mrg._operators.get(mode)
    if ops is None:
        b = mrg.base
        if mode == RAW:
            vals = b.w
        elif mode == ROW_MEAN:
            deg = in_degrees(b).astype(np.float64)[b.dst]
            vals = np.where(deg > 0, b.w / np.maximum(deg, 1.0), 0.0)
        elif mode == SYM_GCN:
            deg = in_degrees(b).astype(np.float64)
            inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
            vals = b.w * inv_sqrt[b.dst] * inv_sqrt[b.src]
        else:
            raise ValueError(f"unknown normalization mode: {mode!r}")
        ops = tuple(
            read_only_operator(
                sparse.csr_matrix((vals[arcs], (b.dst[arcs], b.src[arcs])), shape=(b.n, b.n))
            )
            for arcs in mrg.relations
        )
        mrg._operators[mode] = ops
    return ops


def operator_for_graph(g: Graph, mode: str) -> sparse.csr_matrix:
    """Single-relation operator for a whole graph, degrees from g itself."""
    return normalize(whole_graph(g), mode)[0]


def variant_operators(
    g: Graph,
    variant: str,
    ordering: str,
    seed: int,
    X: Optional[np.ndarray] = None,
) -> tuple[sparse.csr_matrix, ...]:
    """The relation operators a variant aggregates over on g: one whole-graph
    operator, or the three split operators under the named ordering."""
    spec = VARIANTS[variant]
    if spec.split:
        mrg = split_edges(g, order_by(ordering, g, seed, X))
    else:
        mrg = whole_graph(g)
    return normalize(mrg, spec.mode)


def dar_pair_from_dag(g: Graph) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Mean-normalized operators of a DAG and its reverse.

    Errors when some node has no incoming edge in either direction (an
    isolated node), since the rank-preservation guarantee assumes every
    node receives messages from at least one of the two relations.
    """
    acyclic, _ = is_dag(g)
    if not acyclic:
        raise GraphError("dar_pair_from_dag requires a DAG")
    covered = in_degrees(g) + out_degrees(g)
    if g.n and covered.min() == 0:
        lonely = int(np.argmin(covered))
        raise GraphError(
            f"node {lonely} has no incoming edge in either direction"
        )
    return operator_for_graph(g, ROW_MEAN), operator_for_graph(reverse(g), ROW_MEAN)


def split_summary(mrg: MultiRelGraph) -> dict:
    """JSON-ready view of a split: arc lists per relation plus the scores."""
    if mrg.ordering is None:
        raise ValueError("split_summary: the graph is not a split from split_edges")
    arcs = np.stack([mrg.base.src, mrg.base.dst], axis=1)
    return {
        "E1": arcs[mrg.relations[0]].tolist(),
        "E2": arcs[mrg.relations[1]].tolist(),
        "E3": arcs[mrg.relations[2]].tolist(),
        "scores": list(mrg.ordering.scores),
        "ordering": mrg.ordering.method,
    }


_PAIR = "    [\n      %d,\n      %d\n    ]"
# Arcs per fill of the pair template: the Python ints of one slice are all
# that is alive at once, not those of a whole relation.
_SLICE = 1 << 14


def split_json(mrg: MultiRelGraph, seed: int) -> str:
    """A split as the text of json.dumps(split_summary(mrg) | {"seed": seed},
    indent=2, sort_keys=True) + "\n", built from the arc arrays.

    Each relation fills one "%d" pair template per arc, over fixed slices of
    its arcs; each score is written by float.__repr__, as json writes
    floats. A non-finite score has no strict JSON form: ValueError.
    """
    if mrg.ordering is None:
        raise ValueError("split_json: the graph is not a split from split_edges")
    scores = mrg.ordering.scores
    finite = np.isfinite(mrg.ordering.as_array())
    if not finite.all():
        node = int(np.argmin(finite))
        raise ValueError(
            f"node {node} has the non-finite score {scores[node]!r}, "
            "which strict JSON cannot hold"
        )
    b = mrg.base
    parts = ["{\n"]
    for k, arcs in enumerate(mrg.relations):
        parts.append(f'  "E{k + 1}": [')
        for i in range(0, len(arcs), _SLICE):
            part = arcs[i : i + _SLICE]
            flat = np.column_stack((b.src[part], b.dst[part])).ravel().tolist()
            parts.append(",\n" if i else "\n")
            parts.append(",\n".join([_PAIR] * len(part)) % tuple(flat))
        parts.append("\n  ],\n" if len(arcs) else "],\n")
    parts.append(f'  "ordering": {json.dumps(mrg.ordering.method)},\n')
    body = "[]"
    if scores:
        body = "[\n    " + ",\n    ".join(map(float.__repr__, scores)) + "\n  ]"
    parts.append(f'  "scores": {body},\n')
    parts.append(f'  "seed": {seed}\n}}\n')
    return "".join(parts)
