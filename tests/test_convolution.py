"""Message-passing kernels: the linear layer, the five variants, iterate."""

import numpy as np
import pytest

from mrsplit.convolution import (
    Activation,
    IDENTITY,
    LEAKY_RELU,
    LayerParams,
    RELU,
    gat_params,
    gatedgcn_params,
    gin_params,
    iterate,
    linear_params,
    mrs_gat,
    mrs_gatedgcn,
    mrs_gcn,
    mrs_gin,
    mrs_linear_layer,
    mrs_sage,
    sage_params,
)
from mrsplit.graph import add_leaf_self_loops, graph_from_pairs, longest_path_length
from mrsplit.ordering import OrderingScores, order_degree
from mrsplit.split import RAW, ROW_MEAN, operator_for_graph, split_edges

_ATT_SLOPE = 0.2  # the published GAT attention slope the kernel uses


def undirected_path():
    return graph_from_pairs(
        3, [(0, 1), (1, 0), (1, 2), (2, 1)], undirected=True
    )


def path_split():
    g = undirected_path()
    return split_edges(g, order_degree(g))


def all_ties_split(g):
    scores = OrderingScores((0.0,) * g.n, method="features")
    return split_edges(g, scores)


def random_undirected(rng, n, extra):
    pairs = {(i, i + 1) for i in range(n - 1)}
    while len(pairs) < n - 1 + extra:
        a, b = sorted(rng.integers(0, n, size=2))
        if a != b:
            pairs.add((a, b))
    arcs = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    return graph_from_pairs(n, arcs, undirected=True)


def permute_graph(g, perm):
    edges = [(perm[s], perm[d], w) for s, d, w in g.edges]
    return graph_from_pairs(g.n, edges, undirected=g.undirected)


def gat_per_edge(X, mrg, params):
    """Reference GAT: one Python step per arc, softmax per receiver."""
    n, rels = mrg.base.n, len(mrg.relations)
    outs = []
    for h, att in enumerate(params.att_vectors):
        head_weights = params.rel_weights[h * rels : (h + 1) * rels]
        d_out = head_weights[0].shape[1]
        transformed = [X @ w for w in head_weights]
        dsts, logits, msgs = [], [], []
        for k, rel_edges in enumerate(mrg.relations):
            for src, dst, _w in rel_edges:
                m_src, m_dst = transformed[k][src], transformed[k][dst]
                z = float(att[:d_out] @ m_dst + att[d_out:] @ m_src)
                logits.append(z if z >= 0.0 else _ATT_SLOPE * z)
                dsts.append(dst)
                msgs.append(m_src)
        out = np.zeros((n, d_out))
        dsts, logits, msgs = np.array(dsts), np.array(logits), np.array(msgs)
        for i in np.unique(dsts):
            mask = dsts == i
            z = np.exp(logits[mask] - logits[mask].max())
            out[i] = (z / z.sum()) @ msgs[mask]
        outs.append(out)
    return np.concatenate(outs, axis=1)


def gatedgcn_per_edge(X, edge_attrs, mrg, params):
    """Reference GatedGCN: one Python step per arc."""
    n, d_in = X.shape
    d_out = params.gate_self.shape[1]
    num, den = np.zeros((n, d_out)), np.zeros((n, d_out))
    for k, rel_edges in enumerate(mrg.relations):
        for src, dst, _w in rel_edges:
            e = None if edge_attrs is None else edge_attrs.get((src, dst))
            e_vec = np.zeros(d_in) if e is None else np.asarray(e, dtype=np.float64)
            gate_pre = (
                X[dst] @ params.gate_recv
                + X[src] @ params.gate_send
                + e_vec @ params.gate_edge
            )
            gate = 1.0 / (1.0 + np.exp(-gate_pre))
            num[dst] += gate * (X[src] @ params.gate_rel[k])
            den[dst] += gate
    return X @ params.gate_self + num / (den + params.gate_eps)


def random_directed_split(seed, scores_kind):
    """A seeded directed graph with self-loops, zero-weight arcs and a node
    (0) that receives no arc, split by integer scores with ties."""
    rng = np.random.default_rng(seed)
    n = 12
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(40, 2)) if b != 0}
    pairs |= {(3, 3), (5, 5)}
    arcs = [(a, b, 0.0 if i % 7 == 0 else float(rng.uniform(0.5, 2.0)))
            for i, (a, b) in enumerate(sorted(pairs))]
    g = graph_from_pairs(n, arcs)
    if scores_kind == "ties":
        values = rng.integers(0, 4, size=n)
    elif scores_kind == "all_equal":  # E1 and E2 empty
        values = np.zeros(n)
    else:  # strictly increasing: only the self-loops land in E3
        values = np.arange(n)
    mrg = split_edges(g, OrderingScores(tuple(float(v) for v in values), method="features"))
    return rng, g, mrg


SPLIT_CASES = [(seed, kind) for seed in (40, 41, 42) for kind in ("ties", "all_equal", "increasing")]


class TestVectorizedAgainstPerEdge:
    """GAT and GatedGCN equal the per-arc loops they replaced."""

    @pytest.mark.parametrize("seed,kind", SPLIT_CASES)
    def test_gat(self, seed, kind):
        rng, g, mrg = random_directed_split(seed, kind)
        X = rng.uniform(-1, 1, (g.n, 4))
        params = gat_params(rng, 4, 3)
        out = mrs_gat(X, mrg, params)
        assert np.all(out[0] == 0.0)  # node 0 receives no arc
        assert np.abs(out - gat_per_edge(X, mrg, params)).max() <= 1e-12

    @pytest.mark.parametrize("seed,kind", SPLIT_CASES)
    def test_gatedgcn(self, seed, kind):
        rng, g, mrg = random_directed_split(seed, kind)
        X = rng.uniform(-1, 1, (g.n, 4))
        params = gatedgcn_params(rng, 4, 3)
        arcs = [(s, d) for s, d, _ in g.edges]
        attrs = {arcs[i]: rng.uniform(-1, 1, 4) for i in range(0, len(arcs), 3)}
        attrs[(0, 0)] = rng.uniform(-1, 1, 4)  # not an arc: ignored
        s, d = next((s, d) for s, d in arcs if s >= 1)
        attrs[(s - 1, d + g.n)] = rng.uniform(-1, 1, 4)  # not a node pair: ignored
        for edge_attrs in (None, {}, attrs):
            out = mrs_gatedgcn(X, edge_attrs, mrg, params)
            ref = gatedgcn_per_edge(X, edge_attrs, mrg, params)
            assert np.abs(out - ref).max() <= 1e-12

    def test_edgeless(self):
        g = graph_from_pairs(3, [])
        mrg = all_ties_split(g)
        rng = np.random.default_rng(43)
        X = rng.uniform(-1, 1, (3, 2))
        assert np.all(mrs_gat(X, mrg, gat_params(rng, 2, 2)) == 0.0)
        params = gatedgcn_params(rng, 2, 2)
        assert np.array_equal(
            mrs_gatedgcn(X, {(0, 1): np.ones(2)}, mrg, params),
            gatedgcn_per_edge(X, None, mrg, params),
        )


class TestActivation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("softsign")

    def test_leaky_slope_bounds(self):
        with pytest.raises(ValueError):
            Activation("leaky_relu", slope=1.5)

    def test_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(RELU(x), [0.0, 0.0, 3.0])
        assert np.allclose(LEAKY_RELU(x), [-0.02, 0.0, 3.0])
        assert np.allclose(Activation("sigmoid")(np.zeros(2)), 0.5)


class TestLinearLayer:
    def test_zero_input_zero_output(self):
        ops = [operator_for_graph(undirected_path(), RAW)]
        X = np.zeros((3, 2))
        for act in (IDENTITY, RELU, LEAKY_RELU):
            out = mrs_linear_layer(X, ops, [np.ones((2, 2))], act)
            assert np.all(out == 0.0)

    def test_identity_operator_identity_weight(self):
        g = graph_from_pairs(3, [(0, 0), (1, 1), (2, 2)])
        ops = [operator_for_graph(g, RAW)]
        X = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(mrs_linear_layer(X, ops, [np.eye(2)]), X)

    def test_two_relation_hand_example(self):
        # A_1 = [[0,0],[1,0]], A_2 = A_1^T, X = [[1],[2]], W_1=2, W_2=3
        a1 = operator_for_graph(graph_from_pairs(2, [(0, 1)]), RAW)
        a2 = operator_for_graph(graph_from_pairs(2, [(1, 0)]), RAW)
        assert np.array_equal(a1.dense(), [[0.0, 0.0], [1.0, 0.0]])
        out = mrs_linear_layer(
            np.array([[1.0], [2.0]]),
            [a1, a2],
            [np.array([[2.0]]), np.array([[3.0]])],
        )
        assert np.array_equal(out, [[6.0], [2.0]])

    def test_count_mismatch(self):
        ops = [operator_for_graph(undirected_path(), RAW)]
        with pytest.raises(ValueError):
            mrs_linear_layer(np.zeros((3, 1)), ops, [np.eye(1), np.eye(1)])

    def test_dim_mismatch(self):
        ops = [operator_for_graph(undirected_path(), RAW)]
        with pytest.raises(ValueError):
            mrs_linear_layer(np.zeros((3, 2)), ops, [np.eye(3)])

    def test_operator_size_mismatch(self):
        ops = [operator_for_graph(undirected_path(), RAW)]
        with pytest.raises(ValueError):
            mrs_linear_layer(np.zeros((4, 1)), ops, [np.eye(1)])


class TestMrsGcn:
    def test_tied_weights_equal_plain_gcn(self):
        rng = np.random.default_rng(0)
        g = random_undirected(rng, 8, 6)
        mrg = split_edges(g, order_degree(g))
        X = rng.uniform(-1, 1, (8, 3))
        w = rng.uniform(-1, 1, (3, 3))
        params = LayerParams(rel_weights=(w, w, w))
        base = mrs_linear_layer(
            X, [operator_for_graph(g, "sym_gcn")], [w]
        )
        assert np.abs(mrs_gcn(X, mrg, params) - base).max() < 1e-12

    def test_path_center_row(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (3, 2))
        weights = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        out = mrs_gcn(X, path_split(), LayerParams(rel_weights=weights))
        expected = (X[0] @ weights[0] + X[2] @ weights[0]) / np.sqrt(2.0)
        assert np.allclose(out[1], expected)

    def test_source_node_zero_row(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        X = np.ones((3, 2))
        out = mrs_gcn(X, mrg, LayerParams(rel_weights=(np.eye(2),) * 3))
        assert np.all(out[0] == 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        g = random_undirected(rng, 7, 5)
        X = rng.uniform(-1, 1, (7, 3))
        params = linear_params(rng, 3, 3)
        perm = rng.permutation(7)
        gp = permute_graph(g, perm)
        out = mrs_gcn(X, split_edges(g, order_degree(g)), params)
        out_p = mrs_gcn(X[np.argsort(perm)], split_edges(gp, order_degree(gp)), params)
        assert np.abs(out_p[perm] - out).max() < 1e-12


class TestMrsSage:
    def test_edgeless_is_self_transform(self):
        g = graph_from_pairs(3, [])
        mrg = all_ties_split(g)
        rng = np.random.default_rng(3)
        params = sage_params(rng, 2, 2)
        X = rng.uniform(-1, 1, (3, 2))
        assert np.allclose(mrs_sage(X, mrg, params), X @ params.self_weight)

    def test_zero_relation_weights(self):
        rng = np.random.default_rng(4)
        params = LayerParams(
            rel_weights=(np.zeros((2, 2)),) * 3, self_weight=rng.uniform(-1, 1, (2, 2))
        )
        X = rng.uniform(-1, 1, (3, 2))
        out = mrs_sage(X, path_split(), params)
        assert np.allclose(out, X @ params.self_weight)

    def test_path_center_row_mean(self):
        rng = np.random.default_rng(5)
        weights = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        params = LayerParams(rel_weights=weights, self_weight=np.zeros((2, 2)))
        X = rng.uniform(-1, 1, (3, 2))
        out = mrs_sage(X, path_split(), params)
        assert np.allclose(out[1], (X[0] @ weights[0] + X[2] @ weights[0]) / 2.0)


class TestMrsGat:
    def test_single_in_neighbor_full_attention(self):
        g = graph_from_pairs(2, [(0, 1)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0), method="features"))
        rng = np.random.default_rng(6)
        params = gat_params(rng, 2, 2)
        X = rng.uniform(-1, 1, (2, 2))
        out = mrs_gat(X, mrg, params)
        expected = np.concatenate(
            [X[0] @ params.rel_weights[0], X[0] @ params.rel_weights[3]]
        )
        assert np.allclose(out[1], expected)

    def test_zero_attention_is_uniform_mean(self):
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        rng = np.random.default_rng(7)
        weights = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        params = LayerParams(rel_weights=weights, att_vectors=(np.zeros(4),))
        X = rng.uniform(-1, 1, (3, 2))
        out = mrs_gat(X, mrg, params)
        assert np.allclose(out[2], (X[0] @ weights[0] + X[1] @ weights[0]) / 2.0)

    def test_two_neighbor_softmax_closed_form(self):
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        w = np.eye(1)
        att = np.array([0.0, 1.0])  # logit = leaky(x_src), d_out = 1
        params = LayerParams(rel_weights=(w, w, w), att_vectors=(att,))
        X = np.array([[1.0], [3.0], [0.0]])
        z = np.exp([1.0, 3.0])
        alpha = z / z.sum()
        out = mrs_gat(X, mrg, params)
        assert np.allclose(out[2, 0], alpha[0] * 1.0 + alpha[1] * 3.0)

    def test_empty_in_neighborhood_zero_row(self):
        g = graph_from_pairs(2, [(0, 1)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0), method="features"))
        params = gat_params(np.random.default_rng(8), 2, 2)
        out = mrs_gat(np.ones((2, 2)), mrg, params)
        assert np.all(out[0] == 0.0)

    def test_weight_count_validated(self):
        params = LayerParams(rel_weights=(np.eye(1),), att_vectors=(np.zeros(2),))
        with pytest.raises(ValueError):
            mrs_gat(np.ones((3, 1)), path_split(), params)


class TestMrsGin:
    def test_single_relation_when_others_zeroed(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        rng = np.random.default_rng(9)
        w_h, w_o = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))
        zero = np.zeros((2, 2))
        params = LayerParams(
            gin=((0.5, w_h, w_o), (0.0, zero, zero), (0.0, zero, zero))
        )
        X = rng.uniform(-1, 1, (3, 2))
        adj = operator_for_graph(mrg.relation_graph(0), RAW).dense()
        expected = np.maximum((1.5 * X + adj @ X) @ w_h, 0.0) @ w_o
        assert np.allclose(mrs_gin(X, mrg, params), expected)

    def test_identity_mlps_edgeless_triples_input(self):
        g = graph_from_pairs(3, [])
        mrg = all_ties_split(g)
        eye = np.eye(2)
        params = LayerParams(gin=((0.0, eye, eye),) * 3)
        X = np.abs(np.random.default_rng(10).uniform(0, 1, (3, 2)))
        assert np.allclose(mrs_gin(X, mrg, params), 3.0 * X)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        g = random_undirected(rng, 6, 4)
        X = rng.uniform(-1, 1, (6, 3))
        params = gin_params(rng, 3, 3)
        perm = rng.permutation(6)
        gp = permute_graph(g, perm)
        out = mrs_gin(X, split_edges(g, order_degree(g)), params)
        out_p = mrs_gin(
            X[np.argsort(perm)], split_edges(gp, order_degree(gp)), params
        )
        assert np.abs(out_p[perm] - out).max() < 1e-12


class TestMrsGatedGcn:
    def test_edgeless_is_self_transform(self):
        g = graph_from_pairs(3, [])
        mrg = all_ties_split(g)
        rng = np.random.default_rng(12)
        params = gatedgcn_params(rng, 2, 2)
        X = rng.uniform(-1, 1, (3, 2))
        assert np.allclose(
            mrs_gatedgcn(X, None, mrg, params), X @ params.gate_self
        )

    def test_zero_gate_inputs_give_half_gates(self):
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        rng = np.random.default_rng(13)
        b = rng.uniform(-1, 1, (2, 2))
        zero = np.zeros((2, 2))
        params = LayerParams(
            gate_self=zero, gate_rel=(b, b, b), gate_edge=zero,
            gate_recv=zero, gate_send=zero,
        )
        X = rng.uniform(-1, 1, (3, 2))
        out = mrs_gatedgcn(X, None, mrg, params)
        expected = (0.5 * (X[0] @ b) + 0.5 * (X[1] @ b)) / (1.0 + params.gate_eps)
        assert np.allclose(out[2], expected)

    def test_saturated_gate_approaches_plain_message(self):
        g = graph_from_pairs(2, [(0, 1)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0), method="features"))
        big = np.full((1, 1), 50.0)
        b = np.array([[2.0]])
        params = LayerParams(
            gate_self=np.zeros((1, 1)), gate_rel=(b, b, b),
            gate_edge=np.zeros((1, 1)), gate_recv=big, gate_send=big,
        )
        X = np.array([[1.0], [1.0]])
        out = mrs_gatedgcn(X, None, mrg, params)
        assert out[1, 0] == pytest.approx(2.0, abs=1e-5)

    def test_edge_attributes_shift_gate(self):
        g = graph_from_pairs(2, [(0, 1)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0), method="features"))
        b = np.array([[1.0]])
        params = LayerParams(
            gate_self=np.zeros((1, 1)), gate_rel=(b, b, b),
            gate_edge=np.array([[100.0]]), gate_recv=np.zeros((1, 1)),
            gate_send=np.zeros((1, 1)),
        )
        X = np.array([[1.0], [0.0]])
        with_attr = mrs_gatedgcn(X, {(0, 1): np.array([1.0])}, mrg, params)
        without = mrs_gatedgcn(X, None, mrg, params)
        assert with_attr[1, 0] > without[1, 0]


class TestTiedReduction:
    """Tied per-relation transforms make the split invisible (base variant)."""

    def _pair(self, seed, n=8, extra=6):
        rng = np.random.default_rng(seed)
        g = random_undirected(rng, n, extra)
        split = split_edges(g, order_degree(g))
        unsplit = all_ties_split(g)
        X = rng.uniform(-1, 1, (n, 3))
        return rng, split, unsplit, X

    def test_gcn(self):
        rng, split, unsplit, X = self._pair(20)
        w = rng.uniform(-1, 1, (3, 3))
        params = LayerParams(rel_weights=(w, w, w))
        diff = mrs_gcn(X, split, params) - mrs_gcn(X, unsplit, params)
        assert np.abs(diff).max() < 1e-10

    def test_sage(self):
        rng, split, unsplit, X = self._pair(21)
        w = rng.uniform(-1, 1, (3, 3))
        params = LayerParams(rel_weights=(w, w, w), self_weight=rng.uniform(-1, 1, (3, 3)))
        diff = mrs_sage(X, split, params) - mrs_sage(X, unsplit, params)
        assert np.abs(diff).max() < 1e-10

    def test_gat(self):
        rng, split, unsplit, X = self._pair(22)
        w1, w2 = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))
        params = LayerParams(
            rel_weights=(w1, w1, w1, w2, w2, w2),
            att_vectors=(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)),
        )
        diff = mrs_gat(X, split, params) - mrs_gat(X, unsplit, params)
        assert np.abs(diff).max() < 1e-10

    def test_gatedgcn(self):
        rng, split, unsplit, X = self._pair(23)
        b = rng.uniform(-1, 1, (3, 3))
        params = LayerParams(
            gate_self=rng.uniform(-1, 1, (3, 3)), gate_rel=(b, b, b),
            gate_edge=rng.uniform(-1, 1, (3, 3)),
            gate_recv=rng.uniform(-1, 1, (3, 3)),
            gate_send=rng.uniform(-1, 1, (3, 3)),
        )
        diff = mrs_gatedgcn(X, None, split, params) - mrs_gatedgcn(
            X, None, unsplit, params
        )
        assert np.abs(diff).max() < 1e-10


class TestIterate:
    def test_single_layer_matches_direct_call(self):
        rng = np.random.default_rng(30)
        ops = [operator_for_graph(undirected_path(), ROW_MEAN)]
        w = rng.uniform(-1, 1, (2, 2))
        X0 = rng.uniform(-1, 1, (3, 2))
        states = iterate(
            X0, lambda k: (lambda X: mrs_linear_layer(X, ops, [w], RELU)), 1
        )
        assert len(states) == 2
        assert np.array_equal(states[1], mrs_linear_layer(X0, ops, [w], RELU))

    def test_dag_mean_relu_reaches_exact_zero(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        op = operator_for_graph(g, ROW_MEAN)
        rng = np.random.default_rng(31)
        depth = longest_path_length(g) + 1

        def layer(_k):
            w = rng.uniform(-1, 1, (3, 3))
            return lambda X: np.maximum(op.matrix @ (X @ w), 0.0)

        states = iterate(rng.uniform(-1, 1, (4, 3)), layer, depth)
        assert np.abs(states[depth]).max() == 0.0

    def test_leaf_self_loop_keeps_leaf_alive(self):
        g = add_leaf_self_loops(graph_from_pairs(3, [(0, 1), (1, 2)]))
        op = operator_for_graph(g, ROW_MEAN)
        X0 = np.abs(np.random.default_rng(32).uniform(0.1, 1, (3, 2)))
        states = iterate(
            X0,
            lambda k: (lambda X: np.maximum(op.matrix @ (X @ np.eye(2)), 0.0)),
            6,
        )
        assert np.linalg.norm(states[-1][2]) > 0.0

    def test_requires_positive_layer_count(self):
        with pytest.raises(ValueError):
            iterate(np.ones((2, 2)), lambda k: (lambda X: X), 0)
