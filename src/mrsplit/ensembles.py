"""Seeded random graph generation for trajectories, verification trials,
and the synthetic training task. All draws go through an explicit
numpy Generator so runs are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


def random_connected_graph(
    rng: np.random.Generator, n: int, extra_edges: int
) -> Graph:
    """Connected undirected graph: random spanning tree plus extra edges.

    Stored as symmetric arc pairs; with extra_edges ~ n the undirected edge
    count is close to 2n, matching small molecule-like graphs.
    """
    src, dst = _connected_arcs(rng, n, extra_edges)
    return Graph(n=n, src=src, dst=dst, w=np.ones(len(src)), undirected=True)


def _connected_arcs(
    rng: np.random.Generator, n: int, extra_edges: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (src, dst) arcs of random_connected_graph(rng, n, extra_edges),
    drawn as it draws them."""
    if n < 1:
        raise ValueError("need at least one node")
    order = rng.permutation(n)
    # Node order[idx] hangs from a uniform earlier node order[parent]. One
    # draw of all n - 1 parents gives the values of, and leaves the generator
    # as, one integers(0, idx) call per idx in turn.
    a, b = order[1:], order[rng.integers(0, np.arange(1, n))]
    # Edge a < b is the key a * n + b, so sorted keys list the edges in
    # (a, b) order. A tree's edges are distinct.
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    attempts = 0
    target = len(keys) + extra_edges
    cap = 50 * (extra_edges + 1)
    while len(keys) < target and attempts < cap:
        # Each attempt adds at most one edge, so one attempt at a time would
        # make at least k more: drawing their 2k endpoints in one call gives
        # the same values and leaves the generator in the same state.
        k = min(target - len(keys), cap - attempts)
        u, v = rng.integers(0, np.full(2 * k, n)).reshape(k, 2).T
        keys = np.concatenate((keys, (np.minimum(u, v) * n + np.maximum(u, v))[u != v]))
        # Sorted, a repeated edge is next to its twin.
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        attempts += k
    # Edge a < b becomes arc (a, b) followed by (b, a), edges in sorted order.
    ab = np.stack(np.divmod(keys, n), axis=1)
    return ab.ravel(), ab[:, ::-1].ravel()


def random_connected_dag(rng: np.random.Generator, n: int) -> Graph:
    """DAG whose underlying undirected graph is connected: orient the edges
    of a random connected graph along a random node permutation."""
    src, dst = _connected_arcs(rng, n, extra_edges=max(1, n // 8))
    rank = rng.permutation(n)
    pos = np.empty(n, dtype=np.int64)
    pos[rank] = np.arange(n)
    keep = pos[src] < pos[dst]
    return Graph(n=n, src=src[keep], dst=dst[keep], w=np.ones(np.count_nonzero(keep)))


def molecule_like_graph(rng: np.random.Generator, n_lo: int, n_hi: int) -> Graph:
    """Connected graph with n in [n_lo, n_hi] and about 2n undirected edges."""
    n = int(rng.integers(n_lo, n_hi + 1))
    return random_connected_graph(rng, n, extra_edges=n + 1)
