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
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .graph import Graph, GraphError, disjoint_union, in_degrees, is_dag, out_degrees, reverse
from .ordering import OrderingScores

if TYPE_CHECKING:
    from scipy import sparse

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

# The variants a trace runs by default; a name added to VARIANTS does not join.
DEFAULT_VARIANTS = ("gcn", "mrs_gcn", "sage", "mrs_sage")


@dataclass(frozen=True)
class MultiRelGraph:
    """A graph's arcs in relations: (E1, E2, E3) plus the ordering that
    produced them, or one relation of every arc with no ordering.

    relations[k] holds the indices of relation k's distinct arcs in base, in
    base arc order, as a read-only array. The relations are a function of
    base and ordering, so relations takes no part in equality or hashing.
    normalize() keeps the operators it builds in _operators, one entry per
    mode; neither that cache nor arcs_by_receiver takes part in equality,
    hashing or repr.
    """

    base: Graph
    relations: tuple[np.ndarray, ...] = field(compare=False)
    ordering: Optional[OrderingScores]
    _operators: dict[str, tuple[sparse.csr_matrix, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @cached_property
    def arcs_by_receiver(self) -> tuple[np.ndarray, ...]:
        """Per relation, the indices of its arcs in base, by receiver and then
        by sender: the order in which its operators store them.

        Each relation sorts its own arcs by the key dst * n + src, which is
        unique since a Graph holds no duplicate arc, so this is scipy's
        canonical CSR order and the base order filtered by relation.
        Sorting per relation, not once over base and then filtering, lets
        relations share arcs and costs fewer passes over the arcs.
        """
        b = self.base
        keys = b.dst * b.n + b.src
        return tuple(_read_only(arcs[np.argsort(keys[arcs])]) for arcs in self.relations)


def _read_only(arcs: np.ndarray) -> np.ndarray:
    arcs.flags.writeable = False
    return arcs


def read_only_operator(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    """mat, with its data, indices and indptr arrays made read-only."""
    for arr in (mat.data, mat.indices, mat.indptr):
        _read_only(arr)
    return mat


def _index_dtype(n: int, nnz: int) -> type:
    """The index dtype scipy gives an n x n CSR matrix with nnz entries:
    int32 while both n and nnz fit it, else int64."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


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
    base arc is computed once, with a degree-0 node weighing 0. Each
    relation's read-only receiver-row CSR operator is built straight from
    its arcs in mrg.arcs_by_receiver: their values, their senders as column
    indices and their receivers' counts as row pointers. Each mode is built
    on its first request and the same operators are returned on every
    later one.
    """
    ops = mrg._operators.get(mode)
    if ops is None:
        from scipy import sparse  # here, so that splitting needs numpy alone
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
        ops = []
        for arcs in mrg.arcs_by_receiver:
            idx = _index_dtype(b.n, len(arcs))
            indptr = np.zeros(b.n + 1, dtype=idx)
            np.cumsum(np.bincount(b.dst[arcs], minlength=b.n), out=indptr[1:])
            op = sparse.csr_matrix(
                (vals[arcs], b.src[arcs].astype(idx), indptr), shape=(b.n, b.n)
            )
            ops.append(read_only_operator(op))
        ops = mrg._operators[mode] = tuple(ops)
    return ops


def union_operators(
    graphs: Sequence[Graph], scores: Optional[Sequence[OrderingScores]], mode: str
) -> tuple[sparse.csr_matrix, ...]:
    """normalize(mrg, mode) of the disjoint union of graphs, split under the
    parts' scores joined in order, or kept whole when scores is None.

    An arc's relation depends only on its endpoints' scores, and the mode
    reads only per-node degrees, so each operator is the block-diagonal
    operator of the parts' own operators in that relation.
    """
    g = disjoint_union(graphs)
    if scores is None:
        return normalize(whole_graph(g), mode)
    joined = tuple(r for part in scores for r in part.scores)
    return normalize(split_edges(g, OrderingScores(joined, scores[0].method)), mode)


def operator_for_graph(g: Graph, mode: str) -> sparse.csr_matrix:
    """Single-relation operator for a whole graph, degrees from g itself."""
    return normalize(whole_graph(g), mode)[0]


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


# The text of one arc is a record of fixed-width fields: a head, the source
# digits, a middle, the target digits and a tail. Each digit field is as wide
# as the largest node index and padded with NUL bytes, which no JSON text
# holds, so deleting every NUL leaves the indented pair and its ",\n".
_HEAD, _MID, _TAIL = b"    [\n      ", b",\n      ", b"\n    ],\n"
# Arcs per slice: only one slice's records and text are alive at once, not
# those of a whole relation.
_SLICE = 1 << 16


def _digit_table(n: int) -> np.ndarray:
    """Item i: the ASCII digits of node index i, NUL-padded to the width of
    n - 1, for i in range(n)."""
    width = len(str(max(n - 1, 0)))
    digits = np.empty((n, width), np.uint8)
    rest = np.arange(n)
    for j in reversed(range(width)):
        digits[:, j] = rest % 10 + ord("0")
        rest //= 10
    # An index below 10**(width - 1 - j) has no digit in column j: pad it.
    for j in range(width - 1):
        digits[: 10 ** (width - 1 - j), j] = 0
    return digits.view(f"S{width}").ravel()


def split_json(mrg: MultiRelGraph, seed: int) -> list[str]:
    """The pieces of the text of json.dumps(split_summary(mrg) | {"seed":
    seed}, indent=2, sort_keys=True) + "\n", built from the arc arrays. No
    piece holds more than one slice of arcs.

    Each relation's arcs are written over fixed slices: numpy fills one
    fixed-width byte record per arc from a table of every node index's
    digits, and deleting the records' NUL padding gives the slice's piece.
    Each score is written by float.__repr__, as json writes floats. A
    non-finite score has no strict JSON form: ValueError, before any piece.
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
    table = _digit_table(b.n)
    record = np.dtype([
        ("head", f"S{len(_HEAD)}"), ("src", table.dtype), ("mid", f"S{len(_MID)}"),
        ("dst", table.dtype), ("tail", f"S{len(_TAIL)}"),
    ])
    rows = np.empty(min(_SLICE, max(map(len, mrg.relations))), record)
    rows["head"], rows["mid"], rows["tail"] = _HEAD, _MID, _TAIL
    parts = ["{\n"]
    for k, arcs in enumerate(mrg.relations):
        parts.append(f'  "E{k + 1}": [')
        if len(arcs):
            parts.append("\n")
            for i in range(0, len(arcs), _SLICE):
                part = arcs[i : i + _SLICE]
                recs = rows[: len(part)]
                np.take(table, b.src[part], out=recs["src"])
                np.take(table, b.dst[part], out=recs["dst"])
                parts.append(recs.tobytes().replace(b"\0", b"").decode("ascii"))
            # No "," follows a relation's last pair.
            parts[-1] = parts[-1][:-2]
        parts.append("\n  ],\n" if len(arcs) else "],\n")
    parts.append(f'  "ordering": {json.dumps(mrg.ordering.method)},\n')
    body = "[]"
    if scores:
        body = "[\n    " + ",\n    ".join(map(float.__repr__, scores)) + "\n  ]"
    parts.append(f'  "scores": {body},\n')
    parts.append(f'  "seed": {seed}\n}}\n')
    return parts
