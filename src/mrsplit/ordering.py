"""Per-node scalar scores inducing the strict partial ordering i < j iff r_i < r_j.

Score ties are deliberate: tied endpoints are incomparable and their edges
land in the remainder relation. No jitter is ever added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Graph, in_degrees, out_degrees

_MASK64 = (1 << 64) - 1

# The ordering methods order_by knows.
ORDERINGS = ("random", "features", "ppr", "degree")

# The orderings a trace accepts.
TRACE_ORDERINGS = ("degree", "random", "ppr")

# The restart probability and step count of order_ppr.
PPR_ALPHA = 0.1
PPR_ITERS = 15


@dataclass(frozen=True)
class OrderingScores:
    """Length-n score vector plus the method that produced it."""

    scores: tuple[float, ...]
    method: str

    def __len__(self) -> int:
        return len(self.scores)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.scores, dtype=np.float64)


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (state, output).

    Kept explicit (rather than a library RNG) so score permutations can be
    reproduced byte-for-byte by any other implementation of splitmix64.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def order_random(n: int, seed: int) -> OrderingScores:
    """Seeded permutation of {0, ..., n-1} via Fisher-Yates over splitmix64.

    Scores are all distinct, deterministic given the seed, and intended to
    stay fixed across layers and epochs. The swap index is drawn by modulo
    reduction, which is uniform enough at these sizes and trivially portable.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    perm = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        state, value = _splitmix64(state)
        j = value % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return OrderingScores(tuple(map(float, perm)), method="random")


def order_feature_sum(X: np.ndarray) -> OrderingScores:
    """r_i = sum of the feature row of node i."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-dimensional")
    return OrderingScores(tuple(X.sum(axis=1).tolist()), method="features")


def order_ppr(g: Graph, alpha: float = PPR_ALPHA, iters: int = PPR_ITERS) -> OrderingScores:
    """Personalized PageRank scores with a uniform restart vector.

    Runs `iters` steps of p <- alpha*u + (1-alpha)*P^T p starting from the
    uniform distribution u, where P is the row-stochastic out-transition
    matrix and dangling nodes redistribute uniformly. alpha is a finite
    number in [0, 1] and iters >= 0, else ValueError.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be a finite number in [0, 1], got {alpha!r}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters!r}")
    if g.n == 0:
        raise ValueError("PPR requires at least one node")
    n = g.n
    u = np.full(n, 1.0 / n)
    outs = out_degrees(g).astype(np.float64)
    p = u.copy()
    dangling = outs == 0
    src_outs = outs[g.src]
    for _ in range(iters):
        # bincount adds the weights in arc order from 0.0, as np.add.at does;
        # with no arc it gives integer zeros, which the dangling share adds to.
        nxt = np.bincount(g.dst, weights=p[g.src] / src_outs, minlength=n)
        nxt = nxt + p[dangling].sum() / n
        p = alpha * u + (1.0 - alpha) * nxt
    return OrderingScores(tuple(p.tolist()), method="ppr")


def order_degree(g: Graph) -> OrderingScores:
    """r_i = node degree: in-degree for directed graphs, symmetric degree
    (in+out)/2 for undirected-expanded inputs (numerically identical there).
    """
    ins = in_degrees(g).astype(np.float64)
    if g.undirected:
        scores = (ins + out_degrees(g).astype(np.float64)) / 2.0
    else:
        scores = ins
    return OrderingScores(tuple(scores.tolist()), method="degree")


def order_by(
    method: str,
    g: Graph,
    seed: int,
    X: Optional[np.ndarray] = None,
    ppr_alpha: float = PPR_ALPHA,
    ppr_iters: int = PPR_ITERS,
) -> OrderingScores:
    """Scores for g from the named ordering method.

    seed drives only the random ordering, X only the feature ordering.
    """
    if method == "degree":
        return order_degree(g)
    if method == "random":
        return order_random(g.n, seed)
    if method == "ppr":
        return order_ppr(g, alpha=ppr_alpha, iters=ppr_iters)
    if method == "features":
        if X is None:
            raise ValueError("features ordering needs a feature matrix; use the API")
        return order_feature_sum(X)
    raise ValueError(f"unknown ordering method: {method!r}")

