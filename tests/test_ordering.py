"""Score orderings and the induced strict partial order."""

import numpy as np
import pytest

from mrsplit.graph import graph_from_pairs
from mrsplit.ordering import (
    ORDERINGS,
    PPR_ALPHA,
    PPR_ITERS,
    _splitmix64,
    order_by,
    order_degree,
    order_feature_sum,
    order_ppr,
    order_random,
)

# Frozen 15-iteration power-iteration result for the 2-node graph 0->1
# (alpha=0.1, uniform restart, dangling node redistributes uniformly),
# computed by an independent scalar recurrence.
PPR_TWO_NODE = (0.34482661121226943, 0.655173388787731)


def bidirected_triangle():
    return graph_from_pairs(
        3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], undirected=True
    )


class TestSplitmix:
    def test_published_first_output(self):
        # Reference vector for splitmix64 seeded with 0.
        _, out = _splitmix64(0)
        assert out == 0xE220A8397B1DCDAF

    def test_state_advances(self):
        s1, _ = _splitmix64(0)
        s2, _ = _splitmix64(s1)
        assert s1 != s2


class TestOrderRandom:
    def test_deterministic(self):
        assert order_random(8, 42) == order_random(8, 42)

    def test_scores_form_permutation(self):
        for seed in (0, 1, 99):
            scores = order_random(6, seed).scores
            assert sorted(scores) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_empty(self):
        assert order_random(0, 7).scores == ()

    def test_seed_changes_order(self):
        assert order_random(16, 0).scores != order_random(16, 1).scores

    def test_negative_n(self):
        with pytest.raises(ValueError):
            order_random(-1, 0)


class TestOrderFeatureSum:
    def test_row_sums(self):
        scores = order_feature_sum(np.array([[1.0, 2.0], [3.0, -1.0]]))
        assert scores.scores == (3.0, 2.0)

    def test_all_zero_features(self):
        scores = order_feature_sum(np.zeros((3, 4)))
        assert scores.scores == (0.0, 0.0, 0.0)

    def test_column_permutation_invariant(self):
        X = np.arange(12.0).reshape(4, 3)
        assert order_feature_sum(X) == order_feature_sum(X[:, ::-1])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            order_feature_sum(np.ones(3))


class TestOrderPpr:
    def test_edgeless_uniform(self):
        g = graph_from_pairs(4, [])
        assert np.allclose(order_ppr(g).as_array(), 0.25)

    def test_two_node_frozen_oracle(self):
        g = graph_from_pairs(2, [(0, 1)])
        scores = order_ppr(g).scores
        assert scores == PPR_TWO_NODE
        assert scores[1] > scores[0]

    def test_triangle_symmetry(self):
        scores = order_ppr(bidirected_triangle()).as_array()
        assert np.allclose(scores, 1.0 / 3.0)

    def test_sums_to_one_and_nonnegative(self):
        g = graph_from_pairs(6, [(0, 1), (1, 2), (3, 2), (4, 4), (5, 0)])
        p = order_ppr(g).as_array()
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p >= 0).all()

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            order_ppr(graph_from_pairs(0, []))

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_equal_to_add_at_oracle(self, seed):
        # Random digraphs with dangling nodes; seed 0 has no arc at all.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        arcs = 0 if seed == 0 else int(rng.integers(0, 3 * n))
        pairs = {tuple(p) for p in rng.integers(0, n, (arcs, 2)).tolist()}
        g = graph_from_pairs(n, sorted(pairs))
        assert order_ppr(g).scores == ppr_by_add_at(g)


def ppr_by_add_at(g, alpha=PPR_ALPHA, iters=PPR_ITERS):
    """order_ppr's power iteration, with np.add.at summing each node's
    incoming shares."""
    u = np.full(g.n, 1.0 / g.n)
    outs = np.bincount(g.src, minlength=g.n).astype(np.float64)
    p = u.copy()
    for _ in range(iters):
        nxt = np.zeros(g.n)
        if g.num_edges:
            np.add.at(nxt, g.dst, p[g.src] / outs[g.src])
        nxt += p[outs == 0].sum() / g.n
        p = alpha * u + (1.0 - alpha) * nxt
    return tuple(p.tolist())


class TestOrderDegree:
    def test_undirected_path(self):
        g = graph_from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)], undirected=True)
        assert order_degree(g).scores == (1.0, 2.0, 1.0)

    def test_bidirected_triangle(self):
        assert order_degree(bidirected_triangle()).scores == (2.0, 2.0, 2.0)

    def test_directed_chain_uses_in_degree(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        assert order_degree(g).scores == (0.0, 1.0, 1.0)


class TestOrderBy:
    def test_knows_every_named_ordering(self):
        g = bidirected_triangle()
        X = np.arange(6.0).reshape(3, 2)
        for method in ORDERINGS:
            assert order_by(method, g, 0, X).method == method
        with pytest.raises(ValueError, match="unknown ordering method"):
            order_by("bogus", g, 0, X)
