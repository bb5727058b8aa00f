"""Sparse directed graph representation, ingestion, and DAG utilities.

All graphs are directed internally. Undirected inputs are expanded to
symmetric arc pairs at load time and flagged as such, which is the only
place the distinction matters (degree conventions downstream).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Optional

import numpy as np


class GraphError(ValueError):
    """Malformed graph input or a violated structural precondition."""


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph with weighted arcs.

    Node indices are dense 0-based integers. Duplicate (src, dst) pairs are
    rejected at construction; self-loops are permitted.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    undirected: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"node count must be non-negative, got {self.n}")
        seen: set[tuple[int, int]] = set()
        for src, dst, _w in self.edges:
            if not (0 <= src < self.n) or not (0 <= dst < self.n):
                raise GraphError(
                    f"edge ({src}, {dst}) out of range for n={self.n}"
                )
            if (src, dst) in seen:
                raise GraphError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(s, d) for s, d, _ in self.edges}

    def has_self_loops(self) -> bool:
        return any(s == d for s, d, _ in self.edges)


@dataclass(frozen=True)
class DegreeVector:
    """Per-node in/out degree counts and their weighted variants."""

    in_deg: tuple[int, ...]
    out_deg: tuple[int, ...]
    weighted_in: tuple[float, ...]
    weighted_out: tuple[float, ...]


def degree_vector(g: Graph) -> DegreeVector:
    ins = np.zeros(g.n, dtype=np.int64)
    outs = np.zeros(g.n, dtype=np.int64)
    w_in = np.zeros(g.n)
    w_out = np.zeros(g.n)
    for src, dst, w in g.edges:
        outs[src] += 1
        ins[dst] += 1
        w_out[src] += w
        w_in[dst] += w
    return DegreeVector(
        tuple(int(x) for x in ins),
        tuple(int(x) for x in outs),
        tuple(float(x) for x in w_in),
        tuple(float(x) for x in w_out),
    )


def in_degrees(g: Graph) -> np.ndarray:
    """Unweighted in-degree counts as an int array."""
    d = np.zeros(g.n, dtype=np.int64)
    for _, dst, _w in g.edges:
        d[dst] += 1
    return d


def out_degrees(g: Graph) -> np.ndarray:
    d = np.zeros(g.n, dtype=np.int64)
    for src, _, _w in g.edges:
        d[src] += 1
    return d


def graph_from_pairs(
    n: int,
    pairs: Iterable[tuple[int, int]] | Iterable[tuple[int, int, float]],
    undirected: bool = False,
) -> Graph:
    """Convenience constructor accepting (src, dst) or (src, dst, weight)."""
    edges = []
    for p in pairs:
        if len(p) == 2:
            edges.append((p[0], p[1], 1.0))
        else:
            edges.append((p[0], p[1], float(p[2])))
    return Graph(n=n, edges=tuple(edges), undirected=undirected)


def _expand_undirected(
    edges: list[tuple[int, int, float]],
) -> list[tuple[int, int, float]]:
    # Self-loops expand to themselves; an explicitly listed reverse arc will
    # surface as a duplicate-edge error in the Graph constructor.
    out: list[tuple[int, int, float]] = []
    for src, dst, w in edges:
        out.append((src, dst, w))
        if src != dst:
            out.append((dst, src, w))
    return out


def load_edge_list(
    source: IO,
    format: str = "tsv",
    undirected: bool = False,
) -> Graph:
    """Parse a TSV or JSON edge list into a Graph.

    TSV lines are "src<TAB>dst[<TAB>weight]" with an optional first line
    "#n=<count>". JSON is {"n": int, "edges": [[src, dst, weight?], ...],
    "undirected": bool}. Without an explicit node count, n = 1 + max index.
    Duplicate edges are errors, not merged.
    """
    if format == "tsv":
        return _load_tsv(source, undirected)
    if format == "json":
        return _load_json(source, undirected)
    raise GraphError(f"unknown edge list format: {format!r}")


def _decode(line) -> str:
    return line.decode("utf-8") if isinstance(line, bytes) else line


def _load_tsv(source: IO, undirected: bool) -> Graph:
    edges: list[tuple[int, int, float]] = []
    declared_n: Optional[int] = None
    for lineno, raw in enumerate(source, start=1):
        line = _decode(raw).strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1 and line.startswith("#n="):
                try:
                    declared_n = int(line[3:])
                except ValueError:
                    raise GraphError(f"line 1: malformed node count header {line!r}")
                if declared_n < 0:
                    raise GraphError(f"line 1: negative node count {declared_n}")
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 2 or 3 fields, got {len(parts)}")
        try:
            src, dst = int(parts[0]), int(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise GraphError(f"line {lineno}: malformed edge {line!r}") from exc
        if not math.isfinite(weight):
            raise GraphError(f"line {lineno}: non-finite weight {parts[2]!r}")
        if src < 0 or dst < 0:
            raise GraphError(f"line {lineno}: negative node index")
        if declared_n is not None and (src >= declared_n or dst >= declared_n):
            raise GraphError(
                f"line {lineno}: index out of declared range n={declared_n}"
            )
        if any(e[0] == src and e[1] == dst for e in edges):
            raise GraphError(f"line {lineno}: duplicate edge ({src}, {dst})")
        edges.append((src, dst, weight))
    return _loaded_graph(edges, declared_n, undirected)


def _loaded_graph(
    edges: list[tuple[int, int, float]], n: Optional[int], undirected: bool
) -> Graph:
    """Graph from parsed arcs; without a declared n, n = 1 + max index.
    The Graph constructor rejects indices outside the declared range."""
    if n is None:
        n = 1 + max((max(s, d) for s, d, _ in edges), default=-1)
    if undirected:
        edges = _expand_undirected(edges)
    return Graph(n=n, edges=tuple(edges), undirected=undirected)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_json(source: IO, undirected: bool) -> Graph:
    try:
        data = json.loads(_decode(source.read()))
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON graph: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise GraphError("JSON graph must be an object with an 'edges' list")
    file_undirected = data.get("undirected", undirected)
    if not isinstance(file_undirected, bool):
        raise GraphError("JSON 'undirected' must be true or false")
    if undirected and not file_undirected:
        raise GraphError("JSON graph says undirected=false but undirected was requested")
    undirected = file_undirected
    edges: list[tuple[int, int, float]] = []
    for k, item in enumerate(data["edges"]):
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise GraphError(f"edge #{k}: expected [src, dst] or [src, dst, weight]")
        src, dst = item[0], item[1]
        if not (_is_int(src) and _is_int(dst)):
            raise GraphError(f"edge #{k}: node indices must be integers")
        try:
            weight = float(item[2]) if len(item) == 3 else 1.0
        except (TypeError, ValueError) as exc:
            raise GraphError(f"edge #{k}: malformed weight {item[2]!r}") from exc
        if not math.isfinite(weight):
            raise GraphError(f"edge #{k}: non-finite weight {weight!r}")
        if any(e[0] == src and e[1] == dst for e in edges):
            raise GraphError(f"edge #{k}: duplicate edge ({src}, {dst})")
        edges.append((src, dst, weight))
    n = data.get("n")
    if "n" in data and not _is_int(n):
        raise GraphError("JSON 'n' must be an integer")
    return _loaded_graph(edges, n, undirected)


def reverse(g: Graph) -> Graph:
    """Flip every arc: (i, j, w) becomes (j, i, w)."""
    return Graph(
        n=g.n,
        edges=tuple((d, s, w) for s, d, w in g.edges),
        undirected=g.undirected,
    )


def is_dag(g: Graph) -> tuple[bool, Optional[list[int]]]:
    """Cycle check via Kahn's algorithm with lowest-index-first tie-break.

    Returns (True, topological order) for acyclic graphs, (False, None)
    otherwise. A self-loop counts as a cycle.
    """
    indeg = [0] * g.n
    succ: list[list[int]] = [[] for _ in range(g.n)]
    for src, dst, _ in g.edges:
        indeg[dst] += 1
        succ[src].append(dst)
    ready = [i for i in range(g.n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != g.n:
        return False, None
    return True, order


def add_leaf_self_loops(g: Graph) -> Graph:
    """Add a unit self-loop to every node with out-degree zero.

    Requires an acyclic input; every nonempty DAG has at least one sink, so
    the output always differs from the input.
    """
    acyclic, _ = is_dag(g)
    if not acyclic:
        raise GraphError("add_leaf_self_loops requires a DAG")
    outs = out_degrees(g)
    extra = tuple((i, i, 1.0) for i in range(g.n) if outs[i] == 0)
    return Graph(n=g.n, edges=g.edges + extra, undirected=g.undirected)


def longest_path_length(g: Graph) -> int:
    """Number of edges on the longest directed path of a DAG."""
    acyclic, order = is_dag(g)
    if not acyclic:
        raise GraphError("longest_path_length requires a DAG")
    dist = [0] * g.n
    succ: list[list[int]] = [[] for _ in range(g.n)]
    for src, dst, _ in g.edges:
        succ[src].append(dst)
    for node in order:  # type: ignore[union-attr]
        for nxt in succ[node]:
            if dist[node] + 1 > dist[nxt]:
                dist[nxt] = dist[node] + 1
    return max(dist, default=0)
