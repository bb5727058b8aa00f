"""Edge-relation assignment and normalized relation operators."""

import json
import tracemalloc
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
    disjoint_union,
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
    VARIANTS,
    dar_pair_from_dag,
    normalize,
    operator_for_graph,
    split_edges,
    split_json,
    split_summary,
    union_operators,
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


def variant_operators(g, variant, ordering, seed, X=None):
    """The relation operators a variant aggregates over on g alone: one
    whole-graph operator, or the three split operators under the named
    ordering (the oracle of the union builds)."""
    spec = VARIANTS[variant]
    mrg = split_edges(g, order_by(ordering, g, seed, X)) if spec.split else whole_graph(g)
    return normalize(mrg, spec.mode)


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
            ref = sparse.csr_matrix((vals, (g.dst, g.src)), shape=(g.n, g.n))
            assert_same_csr(operator_for_graph(g, mode), ref)


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


def coo_operators(mrg, mode):
    """The oracle of normalize: each relation's per-arc mode values through
    scipy's COO-to-CSR conversion, which sorts each row by column."""
    b = mrg.base
    if mode == RAW:
        vals = b.w
    elif mode == ROW_MEAN:
        deg = in_degrees(b).astype(np.float64)[b.dst]
        vals = np.where(deg > 0, b.w / np.maximum(deg, 1.0), 0.0)
    else:
        deg = in_degrees(b).astype(np.float64)
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
        vals = b.w * inv_sqrt[b.dst] * inv_sqrt[b.src]
    return [
        sparse.csr_matrix((vals[arcs], (b.dst[arcs], b.src[arcs])), shape=(b.n, b.n))
        for arcs in mrg.relations
    ]


def assert_same_csr(op, ref):
    """op and ref hold the same data, indices and indptr, in equal dtypes."""
    assert type(op) is type(ref) and op.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(op, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestDirectBuild:
    """normalize builds each CSR from the relation's arcs by receiver."""

    @settings(max_examples=60)
    @given(graph_and_scores(), st.data())
    def test_every_mode_equals_the_coo_oracle(self, gs, data):
        g, scores = gs
        weights = st.floats(-4.0, 4.0, allow_nan=False)
        w = data.draw(st.lists(weights, min_size=g.num_edges, max_size=g.num_edges))
        g = Graph(n=g.n, src=g.src, dst=g.dst, w=np.array(w, dtype=np.float64))
        for mrg in (split_edges(g, scores), whole_graph(g)):
            for mode in (RAW, ROW_MEAN, SYM_GCN):
                for op, ref in zip(normalize(mrg, mode), coo_operators(mrg, mode), strict=True):
                    assert_same_csr(op, ref)

    @settings(max_examples=40)
    @given(graph_and_scores())
    def test_arcs_by_receiver_is_each_relation_lexsorted(self, gs):
        g, scores = gs
        for mrg in (split_edges(g, scores), whole_graph(g)):
            assert len(mrg.arcs_by_receiver) == len(mrg.relations)
            for arcs, by_receiver in zip(mrg.relations, mrg.arcs_by_receiver):
                want = arcs[np.lexsort((g.src[arcs], g.dst[arcs]))]
                assert np.array_equal(by_receiver, want)
                with pytest.raises(ValueError, match="read-only"):
                    by_receiver[...] = 0
            assert mrg.arcs_by_receiver is mrg.arcs_by_receiver

    def test_relations_that_share_arcs(self):
        g = bidirected_triangle()
        every_arc = np.arange(g.num_edges)
        mrg = split.MultiRelGraph(g, (every_arc, every_arc[::2], every_arc), None)
        for mode in (RAW, ROW_MEAN, SYM_GCN):
            for op, ref in zip(normalize(mrg, mode), coo_operators(mrg, mode), strict=True):
                assert_same_csr(op, ref)

    @pytest.mark.parametrize(
        "n, nnz, want",
        [
            (0, 0, np.int32),
            (2**31 - 1, 0, np.int32),
            (2**31, 0, np.int64),
            (1, 2**31 - 1, np.int32),
            (1, 2**31, np.int64),
            (2**31 - 1, 2**31 - 1, np.int32),
        ],
    )
    def test_index_dtype_boundary(self, n, nnz, want):
        assert split._index_dtype(n, nnz) is want
        assert sparse.get_index_dtype(maxval=max(n, nnz)) is want


@st.composite
def union_parts(draw):
    """One part of a union: a graph of 1 to 8 nodes, possibly with no arcs,
    and its scores, whose ties leave relations of its split empty."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    weights = draw(st.lists(st.sampled_from([1.0, 0.5, -2.0, 3.0]), min_size=len(pairs), max_size=len(pairs)))
    g = graph_from_pairs(n, [(a, b, w) for (a, b), w in zip(sorted(pairs), weights)])
    return g, scores_of(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))


def union_relations(parts, split):
    """The disjoint union of the parts' graphs, split under their scores
    concatenated or whole, and each part's own split or whole graph."""
    graphs, scores = zip(*parts)
    g = disjoint_union(graphs)
    if split:
        joined = OrderingScores(tuple(r for s in scores for r in s.scores), scores[0].method)
        return split_edges(g, joined), [split_edges(*p) for p in parts]
    return whole_graph(g), [whole_graph(p) for p in graphs]


class TestUnion:
    """The split of a disjoint union under the parts' own scores, or the
    union whole, is the block system of the parts' operators."""

    @settings(max_examples=120)
    @given(st.data(), st.booleans(), st.sampled_from([RAW, ROW_MEAN, SYM_GCN]))
    def test_normalize_equals_block_diagonal_of_the_parts(self, data, split, mode):
        parts = data.draw(st.lists(union_parts(), min_size=1, max_size=4))
        graphs, scores = zip(*parts)
        ops = union_operators(graphs, scores if split else None, mode)
        own = [split_edges(*p) if split else whole_graph(p[0]) for p in parts]
        assert len(ops) == len(own[0].relations)
        for k, op in enumerate(ops):
            blocks = [normalize(p, mode)[k] for p in own]
            assert_same_csr(op, sparse.block_diag(blocks, format="csr"))

    def test_single_nodes_no_arcs_and_empty_relations(self):
        g = bidirected_triangle()
        parts = [
            (graph_from_pairs(1, []), scores_of([0])),
            (graph_from_pairs(1, [(0, 0)]), scores_of([1])),
            (g, order_degree(g)),
            (undirected_path(), scores_of([0, 1, 2])),
        ]
        whole, own = union_relations(parts, split=True)
        assert whole.base.n == 1 + 1 + 3 + 3 and whole.base.num_edges == 1 + 6 + 4
        assert [len(arcs) for arcs in whole.relations] == [2, 2, 7]
        for mode in (RAW, ROW_MEAN, SYM_GCN):
            for k, op in enumerate(normalize(whole, mode)):
                blocks = [normalize(p, mode)[k] for p in own]
                assert_same_csr(op, sparse.block_diag(blocks, format="csr"))

    def test_offsets_arcs_relations_and_keeps_each_part_s_scores(self):
        g = undirected_path()
        parts = [(g, scores_of([0, 1, 2])), (g, scores_of([2, 1, 1]))]
        whole, (first, second) = union_relations(parts, split=True)
        assert arcs(whole.base) == arcs(g) + [(s + 3, d + 3, w) for s, d, w in arcs(g)]
        assert whole.base.undirected
        for k in range(3):
            want = first.relations[k].tolist() + (second.relations[k] + 4).tolist()
            assert whole.relations[k].tolist() == want
            with pytest.raises(ValueError, match="read-only"):
                whole.relations[k][...] = 0
        assert whole.ordering == OrderingScores((0.0, 1.0, 2.0, 2.0, 1.0, 1.0), "features")
        assert union_relations(parts, split=False)[0].ordering is None


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


def dag_unions():
    """Lists of DAGs to join: the fixed ones, one alone, and random ones of
    mixed and equal node counts."""
    rng = np.random.default_rng(11)
    dags = _dags()
    return [dags, dags[:1], dags[2:] + dags[:2]] + [
        [random_connected_dag(rng, int(rng.integers(2, 25))) for _ in range(k)]
        for k in (1, 3, 8, 20)
    ] + [[random_connected_dag(rng, 9) for _ in range(12)]]


class TestDarPairOfUnion:
    @pytest.mark.parametrize("case", range(len(dag_unions())))
    def test_equals_the_blockwise_pairs(self, case):
        dags = dag_unions()[case]
        pairs = [dar_pair_from_dag(g) for g in dags]
        for op, blocks in zip(dar_pair_from_dag(disjoint_union(dags)), zip(*pairs), strict=True):
            assert_same_csr(op, sparse.block_diag(blocks, format="csr"))

    @pytest.mark.parametrize("at", range(3))
    def test_raises_when_any_part_has_a_cycle(self, at):
        dags = _dags()[:3]
        dags[at] = graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(GraphError, match="requires a DAG"):
            dar_pair_from_dag(disjoint_union(dags))

    @pytest.mark.parametrize("at", range(3))
    def test_raises_when_any_part_has_an_uncovered_node(self, at):
        dags = _dags()[:3]
        dags[at] = graph_from_pairs(3, [(0, 1)])
        node = sum(g.n for g in dags[:at]) + 2
        with pytest.raises(GraphError, match=f"node {node} has no incoming edge"):
            dar_pair_from_dag(disjoint_union(dags))


class TestSplitSummary:
    def test_json_ready_payload(self):
        g = undirected_path()
        payload = json.loads("".join(split_json(split_edges(g, order_degree(g)), 0)))
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
            pieces = split_json(mrg, seed)
        text = "".join(pieces)
        assert text == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == oracle
        # Each arc's record opens with its own "    [\n      ".
        assert max(piece.count("    [\n      ") for piece in pieces) <= arcs_per_slice

    @staticmethod
    def assert_matches_json_dumps(mrg, seed):
        oracle = split_summary(mrg) | {"seed": seed}
        want = json.dumps(oracle, indent=2, sort_keys=True) + "\n"
        assert "".join(split_json(mrg, seed)) == want

    @pytest.mark.parametrize("n", [0, 1, 10, 11, 101, 1001])
    def test_node_indices_at_digit_width_boundaries(self, n):
        # Every arc among the indices where the digit count changes, the
        # largest index and self-loops, so E1, E2 and E3 all hold some.
        ids = sorted({i for i in (0, 9, 10, 99, 100, 999, 1000, n - 1) if 0 <= i < n})
        g = graph_from_pairs(n, [(a, b) for a in ids for b in ids])
        mrg = split_edges(g, order_by("random", g, 3))
        assert n < 2 or all(len(arcs) for arcs in mrg.relations)
        self.assert_matches_json_dumps(mrg, 3)

    def test_self_loop_only_fills_e3(self):
        g = graph_from_pairs(1, [(0, 0)])
        mrg = split_edges(g, order_degree(g))
        assert [len(arcs) for arcs in mrg.relations] == [0, 0, 1]
        self.assert_matches_json_dumps(mrg, 0)

    def test_relation_longer_than_one_slice(self):
        # A path along increasing scores puts more than _SLICE arcs in E1.
        n = split._SLICE + 1_000
        pairs = [(i, i + 1) for i in range(n - 1)] + [(5, 2), (n - 1, 0), (7, 7)]
        g = graph_from_pairs(n, pairs)
        mrg = split_edges(g, scores_of(range(n)))
        assert len(mrg.relations[0]) > split._SLICE
        self.assert_matches_json_dumps(mrg, 1)

    def test_writing_the_pieces_holds_no_second_copy_of_the_text(self, tmp_path):
        # About 120,000 arcs, split between E1 and E2. Joining the pieces,
        # or copying the joined text, would take the peak past 2x.
        rng = np.random.default_rng(7)
        n, edges = 15_000, 60_000
        src, dst = rng.integers(0, n, (2, 2 * edges))
        keys = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
        keys = rng.permutation(keys[keys // n != keys % n])[:edges]
        lo, hi = keys // n, keys % n
        g = Graph(n=n, src=np.concatenate([lo, hi]), dst=np.concatenate([hi, lo]),
                  w=np.ones(2 * edges), undirected=True)
        mrg = split_edges(g, order_degree(g))
        path = tmp_path / "split.json"
        tracemalloc.start()
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(split_json(mrg, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert text == json.dumps(split_summary(mrg) | {"seed": 5}, indent=2, sort_keys=True) + "\n"
        assert g.num_edges == 2 * edges and peak < 2 * len(text)

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

