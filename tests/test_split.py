"""Edge-relation assignment and normalized relation operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrsplit import convolution, split
from mrsplit.graph import GraphError, graph_from_pairs, in_degrees, is_dag
from mrsplit.ordering import OrderingScores, order_degree, order_random
from mrsplit.split import (
    RAW,
    ROW_MEAN,
    SYM_GCN,
    dar_pair_from_dag,
    normalize,
    operator_for_graph,
    split_edges,
    split_summary,
)


def undirected_path():
    return graph_from_pairs(
        3, [(0, 1), (1, 0), (1, 2), (2, 1)], undirected=True
    )


def bidirected_triangle():
    return graph_from_pairs(
        3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], undirected=True
    )


def scores_of(values):
    return OrderingScores(tuple(float(v) for v in values), method="features")


@st.composite
def graph_and_scores(draw):
    n = draw(st.integers(2, 10))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20
        )
    )
    g = graph_from_pairs(n, sorted(pairs))
    scores = scores_of(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return g, scores


class TestSplitEdges:
    def test_path_degree_split(self):
        mrg = split_edges(undirected_path(), order_degree(undirected_path()))
        assert {(s, d) for s, d, _ in mrg.relations[0]} == {(0, 1), (2, 1)}
        assert {(s, d) for s, d, _ in mrg.relations[1]} == {(1, 0), (1, 2)}
        assert mrg.relations[2] == ()

    def test_triangle_all_ties(self):
        g = bidirected_triangle()
        mrg = split_edges(g, order_degree(g))
        assert mrg.relations[0] == mrg.relations[1] == ()
        assert len(mrg.relations[2]) == 6

    def test_monotone_scores_empty_remainder(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (3, 2), (0, 3)])
        mrg = split_edges(g, scores_of([0, 1, 5, 2]))
        assert mrg.relations[2] == ()

    def test_self_loop_lands_in_remainder(self):
        g = graph_from_pairs(2, [(0, 0), (0, 1)])
        mrg = split_edges(g, scores_of([1, 2]))
        assert mrg.relations[2] == ((0, 0, 1.0),)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            split_edges(undirected_path(), scores_of([1, 2]))

    def test_relation_graph_shares_node_count(self):
        mrg = split_edges(undirected_path(), order_degree(undirected_path()))
        assert mrg.relation_graph(0).n == 3

    @settings(max_examples=60)
    @given(graph_and_scores())
    def test_partition_property(self, gs):
        g, scores = gs
        mrg = split_edges(g, scores)
        merged = [e for rel in mrg.relations for e in rel]
        assert sorted(merged) == sorted(g.edges)
        assert len(merged) == len(set((s, d) for s, d, _ in merged))

    @settings(max_examples=60)
    @given(graph_and_scores())
    def test_score_relations_acyclic(self, gs):
        g, scores = gs
        mrg = split_edges(g, scores)
        assert is_dag(mrg.relation_graph(0))[0]
        assert is_dag(mrg.relation_graph(1))[0]

    @settings(max_examples=60)
    @given(graph_and_scores())
    def test_reversal_duality(self, gs):
        g, scores = gs
        neg = scores_of([-s for s in scores.scores])
        mrg = split_edges(g, scores)
        flipped = split_edges(g, neg)
        assert mrg.relations[0] == flipped.relations[1]
        assert mrg.relations[1] == flipped.relations[0]
        assert mrg.relations[2] == flipped.relations[2]


class TestNormalize:
    def test_path_sym_gcn_entries(self):
        g = undirected_path()
        ops = normalize(split_edges(g, order_degree(g)), SYM_GCN)
        a1 = ops[0].dense()
        # d_0 = 1, d_1 = 2, d_2 = 1 so both arcs into node 1 carry 1/sqrt(2)
        assert a1[1, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert a1[1, 2] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_sym_gcn_sum_identity(self):
        g = bidirected_triangle()
        mrg = split_edges(g, order_random(g.n, 5))
        total = sum(op.dense() for op in normalize(mrg, SYM_GCN))
        deg = in_degrees(g).astype(float)
        inv_sqrt = 1.0 / np.sqrt(deg)
        expected = np.zeros((g.n, g.n))
        for src, dst, w in g.edges:
            expected[dst, src] = w * inv_sqrt[dst] * inv_sqrt[src]
        assert np.abs(total - expected).max() < 1e-12

    @settings(max_examples=40)
    @given(graph_and_scores())
    def test_sum_identity_property(self, gs):
        g, scores = gs
        mrg = split_edges(g, scores)
        total = sum(op.dense() for op in normalize(mrg, SYM_GCN))
        full = operator_for_graph(g, SYM_GCN).dense()
        assert np.abs(total - full).max() < 1e-12

    def test_raw_mode_partitions_adjacency(self):
        g = bidirected_triangle()
        mrg = split_edges(g, order_random(g.n, 1))
        ops = normalize(mrg, RAW)
        total = sum(op.dense() for op in ops)
        for op in ops:
            assert set(np.unique(op.dense())) <= {0.0, 1.0}
        assert np.array_equal(total, operator_for_graph(g, RAW).dense())

    def test_row_mean_uses_full_graph_degree(self):
        g = undirected_path()
        ops = normalize(split_edges(g, order_degree(g)), ROW_MEAN)
        # both in-arcs of node 1 live in E1; 1/d_1 = 1/2 each
        assert ops[0].row_sums()[1] == pytest.approx(1.0)
        assert ops[0].dense()[1, 0] == pytest.approx(0.5)

    def test_degree_zero_row_is_zero(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        op = operator_for_graph(g, ROW_MEAN)
        assert np.all(op.dense()[0] == 0.0)

    def test_unknown_mode(self):
        g = undirected_path()
        with pytest.raises(ValueError, match="normalization"):
            normalize(split_edges(g, order_degree(g)), "bogus")


class TestOperatorCache:
    def _split(self):
        g = graph_from_pairs(
            4, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (3, 3), (0, 3)]
        )
        return split_edges(g, scores_of([0, 1, 1, 2]))

    def test_second_call_returns_same_operators(self):
        mrg = self._split()
        for mode in (RAW, ROW_MEAN, SYM_GCN):
            first = normalize(mrg, mode)
            second = normalize(mrg, mode)
            assert all(a is b for a, b in zip(first, second))

    def test_cached_operators_are_read_only(self):
        mrg = self._split()
        for op in normalize(mrg, SYM_GCN):
            for arr in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    def test_equality_hash_and_repr_ignore_the_cache(self):
        mrg, fresh = self._split(), self._split()
        before = hash(mrg)
        for mode in (RAW, ROW_MEAN, SYM_GCN):
            normalize(mrg, mode)
        assert hash(mrg) == before == hash(fresh)
        assert mrg == fresh
        assert repr(mrg) == repr(fresh)
        assert "_operators" not in repr(mrg)

    @settings(max_examples=40)
    @given(graph_and_scores())
    def test_raw_equals_relation_graph_operator(self, gs):
        mrg = split_edges(*gs)
        for k, op in enumerate(normalize(mrg, RAW)):
            ref = operator_for_graph(mrg.relation_graph(k), RAW).matrix
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(op.matrix, name), getattr(ref, name))

    def test_each_mode_built_once_across_kernels(self, monkeypatch):
        built = []

        def counting(n, edges, mode, degrees):
            built.append(mode)
            return real(n, edges, mode, degrees)

        real = split._operator_from_edges
        monkeypatch.setattr(split, "_operator_from_edges", counting)
        mrg = self._split()
        assert built == []  # split_edges builds no operator
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (4, 2))
        for _ in range(2):
            convolution.mrs_gcn(X, mrg, convolution.linear_params(rng, 2, 2))
            convolution.mrs_sage(X, mrg, convolution.sage_params(rng, 2, 2))
            convolution.mrs_gin(X, mrg, convolution.gin_params(rng, 2, 2))
            convolution.mrs_gat(X, mrg, convolution.gat_params(rng, 2, 2))
            convolution.mrs_gatedgcn(X, None, mrg, convolution.gatedgcn_params(rng, 2, 2))
        assert sorted(built) == sorted([SYM_GCN, ROW_MEAN, RAW] * 3)


class TestDarPair:
    def test_chain_row_coverage(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        fwd, bwd = dar_pair_from_dag(g)
        assert list(fwd.row_sums()) == [0.0, 1.0, 1.0]
        assert list(bwd.row_sums()) == [1.0, 1.0, 0.0]

    def test_isolated_node_rejected(self):
        with pytest.raises(GraphError, match="incoming"):
            dar_pair_from_dag(graph_from_pairs(2, []))

    def test_requires_dag(self):
        with pytest.raises(GraphError):
            dar_pair_from_dag(graph_from_pairs(2, [(0, 1), (1, 0)]))

    def test_diamond_union_covers_all_nodes(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        fwd, bwd = dar_pair_from_dag(g)
        covered = fwd.row_sums() + bwd.row_sums()
        assert (covered > 0).all()


class TestSplitSummary:
    def test_json_ready_payload(self):
        g = undirected_path()
        payload = split_summary(split_edges(g, order_degree(g)))
        assert payload["E1"] == [[0, 1], [2, 1]]
        assert payload["E2"] == [[1, 0], [1, 2]]
        assert payload["E3"] == []
        assert payload["ordering"] == "degree"
        assert payload["scores"] == [1.0, 2.0, 1.0]
