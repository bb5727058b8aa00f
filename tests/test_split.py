"""Edge-relation assignment and normalized relation operators."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse

from mrsplit import convolution, split
from mrsplit.ensembles import random_connected_dag
from mrsplit.graph import (
    Graph,
    GraphError,
    graph_from_pairs,
    in_degrees,
    is_dag,
    reverse,
)
from mrsplit.ordering import (
    OrderingScores,
    order_by,
    order_degree,
    order_feature_sum,
    order_random,
)
from mrsplit.split import (
    RAW,
    ROW_MEAN,
    SYM_GCN,
    dar_pair_from_dag,
    normalize,
    operator_for_graph,
    split_edges,
    split_json,
    split_summary,
    whole_graph,
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


def arcs(g):
    """The arcs of g as (src, dst, weight) tuples, in arc order."""
    return list(zip(g.src.tolist(), g.dst.tolist(), g.w.tolist()))


def relation_graph(mrg, k):
    """Relation k of mrg as a Graph on the base's nodes (the oracle)."""
    arcs, b = mrg.relations[k], mrg.base
    return Graph(n=b.n, src=b.src[arcs], dst=b.dst[arcs], w=b.w[arcs])


def relation_arcs(mrg, k):
    return arcs(relation_graph(mrg, k))


def row_sums(op):
    return np.asarray(op.sum(axis=1)).ravel()


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
        assert {(s, d) for s, d, _ in relation_arcs(mrg, 0)} == {(0, 1), (2, 1)}
        assert {(s, d) for s, d, _ in relation_arcs(mrg, 1)} == {(1, 0), (1, 2)}
        assert relation_arcs(mrg, 2) == []

    def test_triangle_all_ties(self):
        g = bidirected_triangle()
        mrg = split_edges(g, order_degree(g))
        assert relation_arcs(mrg, 0) == relation_arcs(mrg, 1) == []
        assert len(relation_arcs(mrg, 2)) == 6

    def test_monotone_scores_empty_remainder(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (3, 2), (0, 3)])
        mrg = split_edges(g, scores_of([0, 1, 5, 2]))
        assert relation_arcs(mrg, 2) == []

    def test_self_loop_lands_in_remainder(self):
        g = graph_from_pairs(2, [(0, 0), (0, 1)])
        mrg = split_edges(g, scores_of([1, 2]))
        assert relation_arcs(mrg, 2) == [(0, 0, 1.0)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            split_edges(undirected_path(), scores_of([1, 2]))

    @settings(max_examples=60)
    @given(graph_and_scores())
    def test_partition_property(self, gs):
        g, scores = gs
        mrg = split_edges(g, scores)
        merged = [e for k in range(3) for e in relation_arcs(mrg, k)]
        assert sorted(merged) == sorted(arcs(g))
        assert len(merged) == len(set((s, d) for s, d, _ in merged))

    @settings(max_examples=60)
    @given(graph_and_scores())
    def test_relations_partition_arc_indices_in_order(self, gs):
        g, scores = gs
        mrg = split_edges(g, scores)
        r = scores.scores
        assert len(mrg.relations) == 3
        for k, arcs_k in enumerate(mrg.relations):
            assert arcs_k.dtype.kind == "i"
            assert np.all(np.diff(arcs_k) > 0)
            with pytest.raises(ValueError, match="read-only"):
                arcs_k[...] = 0
            for e in arcs_k.tolist():
                s, d = int(g.src[e]), int(g.dst[e])
                assert k == (0 if r[s] < r[d] else 1 if r[s] > r[d] else 2)
        merged = np.sort(np.concatenate(mrg.relations))
        assert np.array_equal(merged, np.arange(g.num_edges))

    def test_equality_follows_base_and_ordering(self):
        g = undirected_path()
        mrg = split_edges(g, order_degree(g))
        again = split_edges(undirected_path(), order_degree(undirected_path()))
        assert mrg == again and hash(mrg) == hash(again)
        assert mrg != split_edges(g, scores_of([0, 1, 2]))

    @settings(max_examples=60)
    @given(graph_and_scores())
    def test_score_relations_acyclic(self, gs):
        g, scores = gs
        mrg = split_edges(g, scores)
        assert is_dag(relation_graph(mrg, 0))[0]
        assert is_dag(relation_graph(mrg, 1))[0]

    @settings(max_examples=60)
    @given(graph_and_scores())
    def test_reversal_duality(self, gs):
        g, scores = gs
        neg = scores_of([-s for s in scores.scores])
        mrg = split_edges(g, scores)
        flipped = split_edges(g, neg)
        assert relation_arcs(mrg, 0) == relation_arcs(flipped, 1)
        assert relation_arcs(mrg, 1) == relation_arcs(flipped, 0)
        assert relation_arcs(mrg, 2) == relation_arcs(flipped, 2)


class TestWholeGraph:
    """A base (unsplit) graph is one relation that holds every arc."""

    @settings(max_examples=40)
    @given(graph_and_scores())
    def test_one_read_only_relation_of_every_arc(self, gs):
        g, _ = gs
        mrg = whole_graph(g)
        assert mrg.base is g and mrg.ordering is None
        (every_arc,) = mrg.relations
        assert every_arc.dtype.kind == "i"
        assert np.array_equal(every_arc, np.arange(g.num_edges))
        with pytest.raises(ValueError, match="read-only"):
            every_arc[...] = 0
        assert arcs(relation_graph(mrg, 0)) == arcs(g)

    @settings(max_examples=40)
    @given(graph_and_scores())
    def test_equal_to_itself_and_unequal_to_any_split(self, gs):
        g, scores = gs
        mrg = whole_graph(g)
        assert mrg == whole_graph(g) and hash(mrg) == hash(whole_graph(g))
        assert mrg != split_edges(g, scores)
        assert mrg != split_edges(g, scores_of([0] * g.n))

    @settings(max_examples=40)
    @given(graph_and_scores())
    def test_operator_for_graph_equals_direct_operator(self, gs):
        g, _ = gs
        deg = in_degrees(g).astype(np.float64)
        inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(g.n), where=deg > 0)
        direct = {
            RAW: g.w,
            ROW_MEAN: g.w / deg[g.dst],  # every arc's receiver has degree >= 1
            SYM_GCN: g.w * inv_sqrt[g.dst] * inv_sqrt[g.src],
        }
        for mode, vals in direct.items():
            op = operator_for_graph(g, mode)
            ref = sparse.csr_matrix((vals, (g.dst, g.src)), shape=(g.n, g.n))
            assert op.shape == ref.shape
            for name in ("data", "indices", "indptr"):
                got, want = getattr(op, name), getattr(ref, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestNormalize:
    def test_path_sym_gcn_entries(self):
        g = undirected_path()
        ops = normalize(split_edges(g, order_degree(g)), SYM_GCN)
        a1 = ops[0].toarray()
        # d_0 = 1, d_1 = 2, d_2 = 1 so both arcs into node 1 carry 1/sqrt(2)
        assert a1[1, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert a1[1, 2] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_sym_gcn_sum_identity(self):
        g = bidirected_triangle()
        mrg = split_edges(g, order_random(g.n, 5))
        total = sum(op.toarray() for op in normalize(mrg, SYM_GCN))
        deg = in_degrees(g).astype(float)
        inv_sqrt = 1.0 / np.sqrt(deg)
        expected = np.zeros((g.n, g.n))
        for src, dst, w in arcs(g):
            expected[dst, src] = w * inv_sqrt[dst] * inv_sqrt[src]
        assert np.abs(total - expected).max() < 1e-12

    @settings(max_examples=40)
    @given(graph_and_scores())
    def test_sum_identity_property(self, gs):
        g, scores = gs
        mrg = split_edges(g, scores)
        total = sum(op.toarray() for op in normalize(mrg, SYM_GCN))
        full = operator_for_graph(g, SYM_GCN).toarray()
        assert np.abs(total - full).max() < 1e-12

    def test_raw_mode_partitions_adjacency(self):
        g = bidirected_triangle()
        mrg = split_edges(g, order_random(g.n, 1))
        ops = normalize(mrg, RAW)
        total = sum(op.toarray() for op in ops)
        for op in ops:
            assert set(np.unique(op.toarray())) <= {0.0, 1.0}
        assert np.array_equal(total, operator_for_graph(g, RAW).toarray())

    def test_row_mean_uses_full_graph_degree(self):
        g = undirected_path()
        ops = normalize(split_edges(g, order_degree(g)), ROW_MEAN)
        # both in-arcs of node 1 live in E1; 1/d_1 = 1/2 each
        assert row_sums(ops[0])[1] == pytest.approx(1.0)
        assert ops[0].toarray()[1, 0] == pytest.approx(0.5)

    def test_degree_zero_row_is_zero(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        op = operator_for_graph(g, ROW_MEAN)
        assert np.all(op.toarray()[0] == 0.0)

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
            for arr in (op.data, op.indices, op.indptr):
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
            ref = operator_for_graph(relation_graph(mrg, k), RAW)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(op, name), getattr(ref, name))

    def test_each_mode_built_once_across_kernels(self, monkeypatch):
        built = []

        def counting(mat):
            built.append(mat)
            return real(mat)

        real = split.read_only_operator
        monkeypatch.setattr(split, "read_only_operator", counting)
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
        cached = [op for mode in (SYM_GCN, ROW_MEAN, RAW) for op in normalize(mrg, mode)]
        # One build per relation and mode, each the operator normalize keeps.
        assert len(built) == 9
        assert {id(op) for op in built} == {id(op) for op in cached}


class TestDarPair:
    def test_chain_row_coverage(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        fwd, bwd = dar_pair_from_dag(g)
        assert list(row_sums(fwd)) == [0.0, 1.0, 1.0]
        assert list(row_sums(bwd)) == [1.0, 1.0, 0.0]

    def test_isolated_node_rejected(self):
        with pytest.raises(GraphError, match="incoming"):
            dar_pair_from_dag(graph_from_pairs(2, []))

    def test_requires_dag(self):
        with pytest.raises(GraphError):
            dar_pair_from_dag(graph_from_pairs(2, [(0, 1), (1, 0)]))

    def test_diamond_union_covers_all_nodes(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        fwd, bwd = dar_pair_from_dag(g)
        covered = row_sums(fwd) + row_sums(bwd)
        assert (covered > 0).all()


def _dags():
    rng = np.random.default_rng(7)
    weighted = graph_from_pairs(
        4, [(0, 1, 2.0), (0, 2, -0.5), (1, 3, 3.0), (2, 3, 0.25), (0, 3, 1.0)]
    )
    return [weighted] + [random_connected_dag(rng, n) for n in (2, 5, 9, 17)]


class TestOperatorsAreCsr:
    def test_normalize_constructs_no_graph_and_dar_pair_only_the_reverse(self, monkeypatch):
        built = []
        real = Graph.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        g = _dags()[0]
        mrg = split_edges(g, order_degree(g))
        monkeypatch.setattr(Graph, "__post_init__", counting)
        for mode in (RAW, ROW_MEAN, SYM_GCN):
            normalize(mrg, mode)
        assert built == []
        dar_pair_from_dag(g)
        assert len(built) == 1
        assert np.array_equal(built[0].src, g.dst) and np.array_equal(built[0].dst, g.src)

    def test_every_operator_is_read_only_csr(self):
        g = _dags()[0]
        mrg = split_edges(g, order_degree(g))
        ops = [op for mode in (RAW, ROW_MEAN, SYM_GCN) for op in normalize(mrg, mode)]
        ops += [operator_for_graph(g, mode) for mode in (RAW, ROW_MEAN, SYM_GCN)]
        ops += list(dar_pair_from_dag(g))
        for op in ops:
            assert type(op) is sparse.csr_matrix
            assert op.shape == (g.n, g.n)
            for arr in (op.data, op.indices, op.indptr):
                assert not arr.flags.writeable

    @pytest.mark.parametrize("idx", range(5))
    def test_dar_reverse_equals_reverse_graph_operator(self, idx):
        g = _dags()[idx]
        fwd, bwd = dar_pair_from_dag(g)
        for op, ref in (
            (fwd, operator_for_graph(g, ROW_MEAN)),
            (bwd, operator_for_graph(reverse(g), ROW_MEAN)),
        ):
            assert op.shape == ref.shape
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(op, name), getattr(ref, name))


class TestSplitSummary:
    def test_json_ready_payload(self):
        g = undirected_path()
        payload = json.loads(split_json(split_edges(g, order_degree(g)), 0))
        assert payload["E1"] == [[0, 1], [2, 1]]
        assert payload["E2"] == [[1, 0], [1, 2]]
        assert payload["E3"] == []
        assert payload["ordering"] == "degree"
        assert payload["scores"] == [1.0, 2.0, 1.0]
        assert payload["seed"] == 0

    def test_rejects_unsplit_graph(self):
        with pytest.raises(ValueError, match="not a split from split_edges"):
            split_json(whole_graph(undirected_path()), 0)


# Finite floats whose repr takes each of its forms, and ties among them.
SCORE_VALUES = [0.0, -0.0, 1.0, 2.0, 0.1, -2.5, 5e-324, 1e16, 1.5e-7, -1e300]


@st.composite
def split_cases(draw):
    """(split, seed) over directed and undirected graphs with weights,
    self-loops, isolated nodes, optional large node indices and zero arcs,
    ordered by each CLI ordering or by drawn scores with ties."""
    n = draw(st.integers(0, 6)) + draw(st.sampled_from([0, 0, 0, 2_345]))
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=5, unique=True)) if n else []
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                 max_size=12, unique=True)
    ) if nodes else []
    undirected = draw(st.booleans())
    if undirected:
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs})
        pairs = [arc for a, b in edges for arc in ([(a, b)] if a == b else [(a, b), (b, a)])]
    weights = draw(
        st.lists(st.sampled_from([1.0, 0.5, 3.0]), min_size=len(pairs), max_size=len(pairs))
    )
    g = Graph(n=n, src=[a for a, _ in pairs], dst=[b for _, b in pairs], w=weights,
              undirected=undirected)
    seed = draw(st.integers(0, 2**64 - 1))
    method = draw(st.sampled_from(["degree", "ppr", "random", "drawn"]))
    if method == "drawn":
        values = draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=4))
        scores = scores_of([values[i % len(values)] for i in range(n)])
    else:
        assume(n or method != "ppr")
        scores = order_by(method, g, seed)
    return split_edges(g, scores), seed


class TestSplitJson:
    @settings(max_examples=200, deadline=None)
    @given(split_cases(), st.sampled_from([1, 2, 3, split._SLICE]))
    def test_bytes_equal_indented_json_dumps(self, case, arcs_per_slice):
        mrg, seed = case
        oracle = split_summary(mrg) | {"seed": seed}
        with mock.patch.object(split, "_SLICE", arcs_per_slice):
            text = split_json(mrg, seed)
        assert text == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == oracle

    @pytest.mark.parametrize(
        "rows, node, shown",
        [
            ([[1.0], [np.inf], [np.nan]], 1, "inf"),
            ([[1.0], [2.0], [np.nan]], 2, "nan"),
            ([[-np.inf, 1.0], [0.0, 0.0], [1.0, 1.0]], 0, "-inf"),
        ],
    )
    def test_non_finite_score_names_its_node(self, rows, node, shown):
        mrg = split_edges(undirected_path(), order_feature_sum(np.array(rows)))
        with pytest.raises(
            ValueError, match=f"^node {node} has the non-finite score {shown},"
        ):
            split_json(mrg, 0)

