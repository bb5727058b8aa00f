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
from typing import IO, Callable, Iterable, Optional, Sequence

import numpy as np


class GraphError(ValueError):
    """Malformed graph input or a violated structural precondition. arc is
    the index of the offending arc when the fault is in one arc, else None."""

    def __init__(self, message: str, arc: Optional[int] = None) -> None:
        super().__init__(message)
        self.arc = arc


# Above this node count the arc keys src * n + dst would overflow int64.
_MAX_NODES = 2**31

# Entry types that a cast to int64 would truncate, wrap or read as 0 and 1.
_NOT_INDICES = (bool, np.bool_, float, complex, np.inexact)


def _cast(values, dtype) -> np.ndarray:
    try:
        return np.array(values, dtype=dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        raise GraphError(f"arcs do not fit int64/float64 arrays: {exc}") from exc


def _check_node_count(n) -> int:
    """n as a Python int: a Python or numpy integer, not a bool, in range."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise GraphError(f"node count must be an integer, not {type(n).__name__}")
    if not 0 <= n < _MAX_NODES:
        raise GraphError(f"node count must be in [0, 2**31), got {n}")
    return int(n)


def _index_arrays(n, src, dst) -> tuple[int, np.ndarray, np.ndarray]:
    """n as an int and src and dst as new int64 arrays, checked in this
    order: the node count n, before any cast; no float, NaN or bool index;
    every index fits int64."""
    n = _check_node_count(n)
    for name, values in (("src", src), ("dst", dst)):
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            continue
        types = set(map(type, values)) if np.iterable(values) else set()
        bad = ", ".join(sorted(t.__name__ for t in types if issubclass(t, _NOT_INDICES)))
        if bad:
            raise GraphError(f"{name} must hold integer indices, not {bad}")
    return n, _cast(src, np.int64), _cast(dst, np.int64)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed graph with weighted arcs, stored as parallel arrays.

    Arc e runs from src[e] to dst[e] with weight w[e]; the arrays are
    read-only copies of the inputs. Node indices are dense 0-based integers.
    Duplicate (src, dst) pairs are rejected at construction; self-loops are
    permitted. Two graphs are equal when n, undirected and every arc, in
    order, are equal.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    undirected: bool = False

    def __post_init__(self) -> None:
        n, src, dst = _index_arrays(self.n, self.src, self.dst)
        object.__setattr__(self, "n", n)
        w = _cast(self.w, np.float64)
        if not (src.ndim == dst.ndim == w.ndim == 1 and len(src) == len(dst) == len(w)):
            raise GraphError("src, dst and w must be vectors of the same length")
        for name, arr in (("src", src), ("dst", dst), ("w", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # Viewed as unsigned, a negative index is at least 2**63 >= n. In
        # range, src * n + dst is one key per pair; sorted, a repeat is
        # next to its twin.
        if len(src) and max(src.view(np.uint64).max(), dst.view(np.uint64).max()) >= n:
            raise GraphError(*_first_bad_arc(src, dst, n))
        keys = src * n + dst
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise GraphError(*_first_bad_arc(src, dst, n))

    def __reduce__(self):
        # A copy or an unpickled graph goes through __post_init__ again, so
        # it is checked and its arrays are read-only like the original's.
        return Graph, (self.n, self.src, self.dst, self.w, self.undirected)

    def _key(self) -> tuple:
        arrays = (self.src, self.dst, self.w)
        return (self.n, self.undirected) + tuple(a.tobytes() for a in arrays)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def num_edges(self) -> int:
        return len(self.src)


def _first_bad_arc(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[str, int]:
    """Message naming the first arc, in arc order, that is out of range or
    repeats an earlier (src, dst) pair, and that arc's index."""
    outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    head = int(outside.argmax()) if outside.any() else len(src)
    keys = src[:head] * n + dst[:head]
    # A stable sort puts each repeat of a pair after its first arc.
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if len(repeats):
        e = int(repeats.min())
        return f"duplicate edge ({src[e]}, {dst[e]})", e
    return f"edge ({src[head]}, {dst[head]}) out of range for n={n}", head


def in_degrees(g: Graph) -> np.ndarray:
    """Unweighted in-degree counts as an int array."""
    return np.bincount(g.dst, minlength=g.n)


def out_degrees(g: Graph) -> np.ndarray:
    return np.bincount(g.src, minlength=g.n)


def graph_from_pairs(
    n: int,
    pairs: Iterable[tuple[int, int]] | Iterable[tuple[int, int, float]],
    undirected: bool = False,
) -> Graph:
    """Convenience constructor accepting (src, dst) or (src, dst, weight).

    undirected=True only sets the graph's flag: list both directions of each
    edge. Unlike the loaders, this does not expand an undirected list.
    """
    arcs = [(p[0], p[1], p[2] if len(p) == 3 else 1.0) for p in pairs]
    src, dst, w = zip(*arcs) if arcs else ((), (), ())
    return Graph(n=n, src=src, dst=dst, w=w, undirected=undirected)


def load_edge_list(
    source: IO,
    format: str = "tsv",
    undirected: bool = False,
) -> Graph:
    """Parse a TSV or JSON edge list into a Graph.

    TSV lines are "src<TAB>dst[<TAB>weight]" with an optional first line
    "#n=<count>". JSON is {"n": int, "edges": [[src, dst, weight?], ...],
    "undirected": bool}. Without an explicit node count, n = 1 + max index.
    Duplicate edges are errors, not merged; in an undirected list an edge
    given in both directions is a duplicate. A byte stream is decoded as
    UTF-8 in one piece, so invalid UTF-8 is reported, with its line, before
    any other fault. A JSON weight must be a number, not a bool or a string,
    and JSON nested too deeply for the parser is malformed. Errors name the
    line or edge, and a fault found while parsing is reported before any
    duplicate.
    """
    if format not in ("tsv", "json"):
        raise GraphError(f"unknown edge list format: {format!r}")
    data = source.read()
    if format == "json":
        return _load_json(_text(data), undirected)
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    else:
        _text(data)  # only the check: the TSV parse reads the bytes
    return _load_tsv(data, undirected)


def _text(data) -> str:
    """data as str; bytes are decoded as UTF-8, and a fault names its line."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphError(f"line {line}: invalid UTF-8 ({exc.reason})") from exc


def _load_tsv(raw: bytes, undirected: bool) -> Graph:
    """Graph of a TSV edge list given as UTF-8 bytes, as if each line went
    through _tsv_line in order.

    The array pass (_strict_lines) reads every strict line, whose one
    possible fault is an index outside a declared node count. Every other
    line goes to _tsv_line, in line order, up to the first line the array
    pass finds out of range, which goes to _tsv_line last. So _tsv_line
    raises every parse message, and the first faulty line wins.
    """
    starts, ends, strict, src, dst, w = _strict_lines(raw)
    rows = np.flatnonzero(strict)
    declared_n = _tsv_header(raw[: ends[0]].decode("utf-8", "surrogatepass"))
    stop = len(starts)
    if declared_n is not None:
        outside = rows[(src >= declared_n) | (dst >= declared_n)]
        stop = int(outside[0]) if len(outside) else stop
    irregular = np.flatnonzero(~strict[:stop])
    if stop < len(starts):
        irregular = np.append(irregular, stop)  # _tsv_line raises its range fault
    at, edges = [], []
    bounds = zip(starts[irregular].tolist(), ends[irregular].tolist())
    for i, (a, b) in zip(irregular.tolist(), bounds):
        edge = _tsv_line(raw[a:b].decode("utf-8", "surrogatepass"), i + 1, declared_n)
        if edge is not None:
            at.append(i)
            edges.append(edge)

    s, d, weights = zip(*edges) if edges else ((), (), ())
    n = declared_n
    if n is None:
        top = int(max(src.max(initial=-1), dst.max(initial=-1)))
        n = 1 + max(top, max(s, default=-1), max(d, default=-1))
    _check_node_count(n)  # before an index _tsv_line parsed meets int64
    if edges:  # merge the edges _tsv_line parsed into line order
        order = np.argsort(np.concatenate((rows, at)))
        rows = np.concatenate((rows, at))[order]
        src = np.concatenate((src, s))[order]
        dst = np.concatenate((dst, d))[order]
        w = np.concatenate((w, weights))[order]
    return _loaded_graph(src, dst, w, n, undirected, lambda k: f"line {rows[k] + 1}")


# An index of at most 18 digits is below 2**63, so the array pass reads it
# into int64 without overflow.
_MAX_DIGITS = 18


def _strict_lines(raw: bytes) -> tuple[np.ndarray, ...]:
    """The array pass over the bytes of a TSV edge list.

    Returns (starts, ends, strict, src, dst, w). Line i, as split at newline
    bytes only, is raw[starts[i]:ends[i]]. strict[i] says whether it is
    "<digits><TAB><digits>", with 1 to 18 ASCII digits in each index, then
    optionally "<TAB><weight>" and one carriage return, where the weight is
    printable ASCII with no space that float reads as a finite number. src,
    dst and w hold the edges of the strict lines, in line order.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    digits = data - 48  # viewed as unsigned, at most 9 on an ASCII digit only
    nondigit = np.flatnonzero(digits > 9)
    byte = data[nondigit]
    is_sep = (byte == 9) | (byte == 10)
    sep = np.append(nondigit[is_sep], len(data))
    last = np.flatnonzero(np.append(byte[is_sep] == 10, True))  # the text's end ends a line
    ends = sep[last]
    starts = np.concatenate(([0], ends[:-1] + 1))
    tabs = np.diff(last, prepend=-1) - 1
    weighted = tabs == 2
    cr = np.zeros(len(ends), dtype=bool)
    filled = ends > starts
    cr[filled] = data[ends[filled] - 1] == 13
    stop = ends - cr  # where the line's fields end
    tab = sep[last - tabs]  # the line's first tab, when it has one or two
    tab2 = sep[last - 1]  # its second tab, when it has two
    first = tab - starts  # digit run lengths
    second = np.where(weighted, tab2, stop) - tab - 1
    strict = ((tabs == 1) | weighted) & (first >= 1) & (second >= 1)
    strict &= (first <= _MAX_DIGITS) & (second <= _MAX_DIGITS)
    # A byte that is no digit, tab or newline must be the closing carriage
    # return or a printable ASCII byte of the weight.
    other = nondigit[~is_sep]
    line = np.searchsorted(ends, other)
    allowed = cr[line] & (other == stop[line])
    printable = (byte[~is_sep] > 32) & (byte[~is_sep] < 127)
    allowed |= weighted[line] & (other > tab2[line]) & (other < stop[line]) & printable
    strict[line[~allowed]] = False
    w = np.ones(len(starts))
    heavy = np.flatnonzero(strict & weighted)
    tokens = zip((tab2[heavy] + 1).tolist(), stop[heavy].tolist())
    w[heavy] = [_weight(raw[a:b]) for a, b in tokens]
    strict &= np.isfinite(w)
    rows = np.flatnonzero(strict)
    src = _digit_runs(digits, starts[rows], first[rows])
    dst = _digit_runs(digits, tab[rows] + 1, second[rows])
    return starts, ends, strict, src, dst, w[rows]


def _weight(token: bytes) -> float:
    """float(token), as _tsv_line reads a weight, or NaN if float cannot."""
    try:
        return float(token)
    except ValueError:
        return math.nan


def _digit_runs(digits: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """int64 value of each run digits[start : start + length] of decimal
    digit values, one vectorised step per digit position: the k-th digit
    from the right of a run weighs 10**k, and 0 once k passes the run's
    start."""
    at = start + length
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(int(length.max(initial=0))):
        at -= 1
        value += np.take(digits, at, mode="clip") * ((length > k) * 10**k)
    return value


def _tsv_header(line: str) -> Optional[int]:
    """The node count that line 1 declares as "#n=<count>", else None."""
    line = line.strip()
    if not line.startswith("#n="):
        return None
    try:
        declared_n = int(line[3:])
    except ValueError:
        raise GraphError(f"line 1: malformed node count header {line!r}")
    if declared_n < 0:
        raise GraphError(f"line 1: negative node count {declared_n}")
    return declared_n


def _tsv_line(
    line: str, lineno: int, declared_n: Optional[int]
) -> Optional[tuple[int, int, float]]:
    """The (src, dst, weight) edge on one TSV line, or None for a blank or
    comment line (a header included). Raises the line's fault, naming it."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) not in (2, 3):
        raise GraphError(f"line {lineno}: expected 2 or 3 fields, got {len(parts)}")
    try:
        s, d = int(parts[0]), int(parts[1])
        weight = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError as exc:
        raise GraphError(f"line {lineno}: malformed edge {line!r}") from exc
    if not math.isfinite(weight):
        raise GraphError(f"line {lineno}: non-finite weight {parts[2]!r}")
    if s < 0 or d < 0:
        raise GraphError(f"line {lineno}: negative node index")
    if declared_n is not None and (s >= declared_n or d >= declared_n):
        raise GraphError(f"line {lineno}: index out of declared range n={declared_n}")
    return s, d, weight


def _loaded_graph(
    src: list, dst: list, w: list, n: Optional[int], undirected: bool, where: Callable
) -> Graph:
    """Graph from parsed edges; without a declared n, n = 1 + max index. An
    undirected list gives each edge's arc, then its reverse unless it is a
    self-loop. The Graph constructor is the one check for duplicate and
    out-of-range arcs; its error is prefixed with where(k), the input
    position of the offending arc's edge k."""
    if n is None:
        n = 1 + max(max(src, default=-1), max(dst, default=-1))
    if undirected:
        # Graph's own checks first: the node count before any index cast.
        n, s, d = _index_arrays(n, src, dst)
        kept = np.ones(2 * len(s), dtype=bool)  # slot 2k: edge k; 2k + 1: reverse
        kept[1::2] = s != d
        src = np.column_stack((s, d)).ravel()[kept]
        dst = np.column_stack((d, s)).ravel()[kept]
        w = np.repeat(w, 2)[kept]
    try:
        return Graph(n=n, src=src, dst=dst, w=w, undirected=undirected)
    except GraphError as exc:
        if exc.arc is None:
            raise
        k = int(np.flatnonzero(kept)[exc.arc]) // 2 if undirected else exc.arc
        raise GraphError(f"{where(k)}: {exc}") from exc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_json(text: str, undirected: bool) -> Graph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise GraphError(f"malformed JSON graph: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise GraphError("JSON graph must be an object with an 'edges' list")
    file_undirected = data.get("undirected", undirected)
    if not isinstance(file_undirected, bool):
        raise GraphError("JSON 'undirected' must be true or false")
    if undirected and not file_undirected:
        raise GraphError("JSON graph says undirected=false but undirected was requested")
    src, dst, w = [], [], []
    for k, item in enumerate(data["edges"]):
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise GraphError(f"edge #{k}: expected [src, dst] or [src, dst, weight]")
        s, d = item[0], item[1]
        if not (_is_int(s) and _is_int(d)):
            raise GraphError(f"edge #{k}: node indices must be integers")
        weight = item[2] if len(item) == 3 else 1.0
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise GraphError(f"edge #{k}: malformed weight {weight!r}")
        try:
            weight = float(weight)
        except OverflowError:  # an integer beyond float64 is +-inf, as 1e400 reads
            weight = math.inf if weight > 0 else -math.inf
        if not math.isfinite(weight):
            raise GraphError(f"edge #{k}: non-finite weight {weight!r}")
        src.append(s)
        dst.append(d)
        w.append(weight)
    n = data.get("n")
    if "n" in data and not _is_int(n):
        raise GraphError("JSON 'n' must be an integer")
    return _loaded_graph(src, dst, w, n, file_undirected, lambda k: f"edge #{k}")


def reverse(g: Graph) -> Graph:
    """Flip every arc: (i, j, w) becomes (j, i, w)."""
    return Graph(n=g.n, src=g.dst, dst=g.src, w=g.w, undirected=g.undirected)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """The graphs side by side, in order: graph i's nodes and arcs follow
    those of the graphs before it, its node indices offset by their node
    count. The union is undirected when every part is. No graphs: ValueError."""
    sizes = np.array([g.n for g in graphs])
    node_at = np.repeat(np.cumsum(sizes) - sizes, [g.num_edges for g in graphs])
    return Graph(
        n=int(sizes.sum()),
        src=np.concatenate([g.src for g in graphs]) + node_at,
        dst=np.concatenate([g.dst for g in graphs]) + node_at,
        w=np.concatenate([g.w for g in graphs]),
        undirected=all(g.undirected for g in graphs),
    )


def _kahn(g: Graph) -> tuple[Optional[list[int]], list[int]]:
    """One pass of Kahn's algorithm, lowest index first: the topological
    order, None on a cycle, and each node's depth, the arc count of the
    longest path that ends there."""
    by_src = np.argsort(g.src, kind="stable")
    heads = g.dst[by_src].tolist()  # out-arc heads grouped by tail, in arc order
    start = np.concatenate(([0], np.cumsum(out_degrees(g)))).tolist()
    indeg = in_degrees(g).tolist()
    depth = [0] * g.n
    ready = [i for i in range(g.n) if indeg[i] == 0]  # ascending, so a heap
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in heads[start[node] : start[node + 1]]:
            depth[nxt] = max(depth[nxt], depth[node] + 1)
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    return (order if len(order) == g.n else None), depth


def is_dag(g: Graph) -> tuple[bool, Optional[list[int]]]:
    """Cycle check via Kahn's algorithm with lowest-index-first tie-break.

    Returns (True, topological order) for acyclic graphs, (False, None)
    otherwise. A self-loop counts as a cycle.
    """
    order, _ = _kahn(g)
    return order is not None, order


def longest_path_length(g: Graph) -> int:
    """Number of edges on the longest directed path of a DAG."""
    order, depth = _kahn(g)
    if order is None:
        raise GraphError("longest_path_length requires a DAG")
    return max(depth, default=0)
