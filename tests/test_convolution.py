"""Message-passing kernels: the activations, the linear layer, the five variants."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from mrsplit import convolution
from mrsplit.convolution import (
    ACTIVATIONS,
    GATE_EPS,
    GatedGcnParams,
    GatParams,
    SageParams,
    gat_params,
    gatedgcn_params,
    gin_params,
    identity,
    leaky_relu,
    linear_params,
    mrs_gat,
    mrs_gatedgcn,
    mrs_gcn,
    mrs_gin,
    mrs_linear_layer,
    mrs_sage,
    relation_sum,
    relu,
    sage_params,
    sigmoid,
)
from mrsplit.graph import Graph, graph_from_pairs, longest_path_length
from mrsplit.ordering import OrderingScores, order_degree
from mrsplit.split import (
    RAW,
    ROW_MEAN,
    normalize,
    operator_for_graph,
    split_edges,
    whole_graph,
)

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
    return Graph(n=g.n, src=perm[g.src], dst=perm[g.dst], w=g.w, undirected=g.undirected)


def relation_graph(mrg, k):
    """Relation k of mrg as a Graph on the base's nodes (the oracle)."""
    arcs, b = mrg.relations[k], mrg.base
    return Graph(n=b.n, src=b.src[arcs], dst=b.dst[arcs], w=b.w[arcs])


def relation_arcs(mrg, k):
    """(src, dst) of relation k's arcs, one Python pair per arc."""
    rel = relation_graph(mrg, k)
    return zip(rel.src.tolist(), rel.dst.tolist())


def gat_per_edge(X, mrg, params):
    """Reference GAT: one Python step per arc, softmax per receiver."""
    n, rels = mrg.base.n, len(mrg.relations)
    outs = []
    for head_weights, att in zip(params.head_weights, params.att_vectors):
        d_out = head_weights[0].shape[1]
        transformed = [X @ w for w in head_weights]
        dsts, logits, msgs = [], [], []
        for k in range(rels):
            for src, dst in relation_arcs(mrg, k):
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
    """Reference GatedGCN: one Python step per arc; row e of edge_attrs is
    base arc e's attribute."""
    n = X.shape[0]
    d_out = params.self_weight.shape[1]
    num, den = np.zeros((n, d_out)), np.zeros((n, d_out))
    for k, arcs in enumerate(mrg.relations):
        for e in arcs.tolist():
            src, dst = int(mrg.base.src[e]), int(mrg.base.dst[e])
            gate_pre = X[dst] @ params.recv_weight + X[src] @ params.send_weight
            if edge_attrs is not None:
                gate_pre = gate_pre + edge_attrs[e] @ params.edge_weight
            gate = 1.0 / (1.0 + np.exp(-gate_pre))
            num[dst] += gate * (X[src] @ params.rel_weights[k])
            den[dst] += gate
    return X @ params.self_weight + num / (den + GATE_EPS)


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
        # Arcs are listed by sender and the operators store them by receiver,
        # so some relation's arc order is not its operator's order.
        assert any(np.any(np.diff(g.dst[arcs]) < 0) for arcs in mrg.relations)
        X = rng.uniform(-1, 1, (g.n, 4))
        params = gatedgcn_params(rng, 4, 3)
        signs = rng.choice([-1.0, 1.0], (g.num_edges, 4))
        attrs = signs * rng.uniform(0.5, 1.0, (g.num_edges, 4))  # nonzero on every arc
        for edge_attrs in (None, attrs):
            out = mrs_gatedgcn(X, edge_attrs, mrg, params)
            ref = gatedgcn_per_edge(X, edge_attrs, mrg, params)
            assert np.abs(out - ref).max() <= 1e-12

    @pytest.mark.parametrize(
        "shape",
        [lambda m: (m - 1, 4), lambda m: (m + 1, 4), lambda m: (m, 3),
         lambda m: (m, 5), lambda m: (4 * m,)],
        ids=["short", "long", "narrow", "wide", "flat"],
    )
    def test_gatedgcn_edge_attribute_shape_checked(self, shape):
        _, g, mrg = random_directed_split(40, "ties")
        params = gatedgcn_params(np.random.default_rng(0), 4, 3)
        with pytest.raises(ValueError, match="edge attributes of shape"):
            mrs_gatedgcn(np.zeros((g.n, 4)), np.ones(shape(g.num_edges)), mrg, params)

    def test_edgeless(self):
        g = graph_from_pairs(3, [])
        mrg = all_ties_split(g)
        rng = np.random.default_rng(43)
        X = rng.uniform(-1, 1, (3, 2))
        assert np.all(mrs_gat(X, mrg, gat_params(rng, 2, 2)) == 0.0)
        params = gatedgcn_params(rng, 2, 2)
        assert np.array_equal(
            mrs_gatedgcn(X, np.ones((0, 2)), mrg, params),
            gatedgcn_per_edge(X, None, mrg, params),
        )


# Every special value both in numpy's vectorized blocks and in an array's
# tail (lengths 1 to 40), plus a strided view, which takes another path.
_SPECIALS = np.array(
    [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
     5e-324, -5e-324, 1e-310, -1e-310, 2.0, -2.0]
)
SPECIAL_CASES = [np.resize(np.roll(_SPECIALS, k), n) for n in range(1, 41) for k in range(3)]
SPECIAL_CASES.append(np.resize(_SPECIALS, (12, 12))[:, ::5])


class TestActivation:
    def test_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(relu(x), [0.0, 0.0, 3.0])
        assert np.allclose(leaky_relu(x), [-0.02, 0.0, 3.0])
        assert np.allclose(sigmoid(np.zeros(2)), 0.5)

    def test_table_names_each_function(self):
        assert ACTIVATIONS == {
            "identity": identity, "relu": relu,
            "leaky_relu": leaky_relu, "sigmoid": sigmoid,
        }

    @pytest.mark.parametrize(
        "act,where",
        [
            (relu, lambda x: np.where(x > 0, x, 0.0)),
            (leaky_relu, lambda x: np.where(x >= 0, x, 0.01 * x)),
        ],
        ids=["relu", "leaky_relu"],
    )
    def test_bitwise_equals_where(self, act, where):
        for x in SPECIAL_CASES:
            got, expected = act(x), where(x)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), x


def _fitting(X, ws):
    """A transform from X's last-axis width to the output width of ws."""
    return np.ones((X.shape[-1], ws[0].shape[1]))


class TestLinearLayer:
    def test_zero_input_zero_output(self):
        ops = [operator_for_graph(undirected_path(), RAW)]
        X = np.zeros((3, 2))
        for act in (identity, relu, leaky_relu):
            out = act(mrs_linear_layer(X, ops, [np.ones((2, 2))]))
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
        assert np.array_equal(a1.toarray(), [[0.0, 0.0], [1.0, 0.0]])
        out = mrs_linear_layer(
            np.array([[1.0], [2.0]]),
            [a1, a2],
            [np.array([[2.0]]), np.array([[3.0]])],
        )
        assert np.array_equal(out, [[6.0], [2.0]])

    # Each kernel applied to features X and relation transforms ws on the
    # three-relation split of undirected_path(); every other transform fits X
    # and ws.
    KERNELS = {
        "mrs_linear_layer": lambda X, ws: mrs_linear_layer(X, normalize(path_split(), RAW), ws),
        "mrs_gcn": lambda X, ws: mrs_gcn(X, path_split(), ws),
        "mrs_sage": lambda X, ws: mrs_sage(
            X, path_split(), SageParams(rel_weights=ws, self_weight=_fitting(X, ws))
        ),
        "mrs_gat": lambda X, ws: mrs_gat(
            X, path_split(),
            GatParams(head_weights=(ws, ws), att_vectors=(np.zeros(2 * ws[0].shape[1]),) * 2),
        ),
        "mrs_gin": lambda X, ws: mrs_gin(
            X, path_split(), tuple((0.0, w, np.eye(w.shape[1])) for w in ws)
        ),
        "mrs_gatedgcn": lambda X, ws: mrs_gatedgcn(
            X, None, path_split(),
            GatedGcnParams(
                self_weight=_fitting(X, ws), rel_weights=ws, edge_weight=_fitting(X, ws),
                recv_weight=_fitting(X, ws), send_weight=_fitting(X, ws),
            ),
        ),
    }

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_count_mismatch(self, kernel):
        with pytest.raises(ValueError, match="got 3 operators but 2 transforms"):
            self.KERNELS[kernel](np.zeros((3, 1)), (np.eye(1),) * 2)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_dim_mismatch(self, kernel):
        with pytest.raises(ValueError, match="transform input dim does not match"):
            self.KERNELS[kernel](np.zeros((3, 2)), (np.eye(3),) * 3)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_operator_size_mismatch(self, kernel):
        with pytest.raises(ValueError, match="operator size 3 does not match feature rows 4"):
            self.KERNELS[kernel](np.zeros((4, 1)), (np.eye(1),) * 3)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shape", [(3,), (3, 1, 1)], ids=["1d", "3d"])
    def test_features_not_2d(self, kernel, shape):
        with pytest.raises(ValueError, match=rf"features of shape \({shape[0]},"):
            self.KERNELS[kernel](np.zeros(shape), (np.eye(1),) * 3)

    # Each kernel at d = d' = 2 on the path split, with params drawn for it
    # except that the named field holds `bad`: GIN's field is every W_out and
    # GAT's is both heads' attention vectors.
    WITH_BAD = {
        "mrs_sage": lambda X, field, bad: mrs_sage(
            X, path_split(), replace(sage_params(np.random.default_rng(0), 2, 2), **{field: bad})
        ),
        "mrs_gatedgcn": lambda X, field, bad: mrs_gatedgcn(
            X, None, path_split(),
            replace(gatedgcn_params(np.random.default_rng(0), 2, 2), **{field: bad}),
        ),
        "mrs_gin": lambda X, field, bad: mrs_gin(
            X, path_split(),
            tuple((eps, w, bad) for eps, w, _ in gin_params(np.random.default_rng(0), 2, 2)),
        ),
        "mrs_gat": lambda X, field, bad: mrs_gat(
            X, path_split(),
            replace(gat_params(np.random.default_rng(0), 2, 2), att_vectors=(bad, bad)),
        ),
    }

    @pytest.mark.parametrize(
        "kernel,field",
        [("mrs_sage", "self_weight")]
        + [("mrs_gatedgcn", f) for f in ("self_weight", "recv_weight", "send_weight")]
        + [("mrs_gin", "w_out"), ("mrs_gat", "att_vectors")],
    )
    def test_extra_transform_dim_mismatch(self, kernel, field):
        cases = {
            "mrs_gin": [(np.ones((3, 2)), "W_out input dim 3 does not match W_hidden output dim 2")],
            "mrs_gat": [
                (np.zeros(shape), rf"attention vector of shape \({shape[0]},.*expected \(4,\)")
                for shape in [(3,), (5,), (2, 2)]
            ],
        }.get(kernel, [(np.eye(3), "transform input dim does not match")])
        for bad, match in cases:
            with pytest.raises(ValueError, match=match):
                self.WITH_BAD[kernel](np.zeros((3, 2)), field, bad)


class TestStackedRelationSum:
    """A stack of graphs with one node count, under block-diagonal operators,
    sums exactly as each graph does alone."""

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("with_self", [False, True])
    def test_stack_equals_separate_calls(self, split, with_self):
        rng = np.random.default_rng(11)
        graphs = [random_undirected(rng, 9, 6) for _ in range(3)]
        mrgs = [split_edges(g, order_degree(g)) if split else whole_graph(g) for g in graphs]
        per_graph = [normalize(mrg, ROW_MEAN) for mrg in mrgs]
        blocks = [sparse.block_diag(ops, format="csr") for ops in zip(*per_graph)]
        X = rng.uniform(-1.0, 1.0, (3, 9, 5))
        weights = rng.uniform(-1.0, 1.0, (len(blocks), 3, 5, 4))
        self_weight = rng.uniform(-1.0, 1.0, (3, 5, 4)) if with_self else None
        stacked = relation_sum(X, blocks, weights, self_weight)
        assert stacked.shape == (3, 9, 4)
        for b, ops in enumerate(per_graph):
            alone = relation_sum(
                X[b], ops, weights[:, b], None if self_weight is None else self_weight[b]
            )
            # Bits, the sign of zero among them.
            assert stacked[b].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("k", [2, 5])
    def test_n_by_n_operator_on_a_stack_of_several_is_rejected(self, k):
        # An operator applies to the stack's rows flattened, so an n x n
        # operator fits a (k, n, d) stack only when k is 1.
        ops = normalize(whole_graph(random_undirected(np.random.default_rng(3), 9, 6)), ROW_MEAN)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.0, 1.0, (k, 9, 5))
        with pytest.raises(ValueError):
            relation_sum(X, ops, rng.uniform(-1.0, 1.0, (1, k, 5, 4)))

    @pytest.mark.parametrize("with_self", [False, True])
    def test_n_by_n_operator_on_a_stack_of_one_sums_as_the_matrix(self, with_self):
        # A chunk of one unit is a (1, n, d) stack under its own operators.
        g = random_undirected(np.random.default_rng(5), 9, 6)
        ops = normalize(split_edges(g, order_degree(g)), ROW_MEAN)
        rng = np.random.default_rng(6)
        X = rng.uniform(-1.0, 1.0, (9, 5))
        weights = rng.uniform(-1.0, 1.0, (len(ops), 5, 4))
        self_weight = rng.uniform(-1.0, 1.0, (5, 4)) if with_self else None
        stacked = relation_sum(
            X[None], ops, weights[:, None], None if self_weight is None else self_weight[None]
        )
        assert stacked.shape == (1, 9, 4)
        assert stacked[0].tobytes() == relation_sum(X, ops, weights, self_weight).tobytes()


class TestMrsGcn:
    def test_tied_weights_equal_plain_gcn(self):
        rng = np.random.default_rng(0)
        g = random_undirected(rng, 8, 6)
        mrg = split_edges(g, order_degree(g))
        X = rng.uniform(-1, 1, (8, 3))
        w = rng.uniform(-1, 1, (3, 3))
        params = (w, w, w)
        base = mrs_linear_layer(
            X, [operator_for_graph(g, "sym_gcn")], [w]
        )
        assert np.abs(mrs_gcn(X, mrg, params) - base).max() < 1e-12

    def test_path_center_row(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (3, 2))
        weights = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        out = mrs_gcn(X, path_split(), weights)
        expected = (X[0] @ weights[0] + X[2] @ weights[0]) / np.sqrt(2.0)
        assert np.allclose(out[1], expected)

    def test_source_node_zero_row(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        X = np.ones((3, 2))
        out = mrs_gcn(X, mrg, (np.eye(2),) * 3)
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
        params = SageParams(
            rel_weights=(np.zeros((2, 2)),) * 3, self_weight=rng.uniform(-1, 1, (2, 2))
        )
        X = rng.uniform(-1, 1, (3, 2))
        out = mrs_sage(X, path_split(), params)
        assert np.allclose(out, X @ params.self_weight)

    def test_path_center_row_mean(self):
        rng = np.random.default_rng(5)
        weights = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        params = SageParams(rel_weights=weights, self_weight=np.zeros((2, 2)))
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
            [X[0] @ params.head_weights[0][0], X[0] @ params.head_weights[1][0]]
        )
        assert np.allclose(out[1], expected)

    def test_zero_attention_is_uniform_mean(self):
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        rng = np.random.default_rng(7)
        weights = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        params = GatParams(head_weights=(weights,), att_vectors=(np.zeros(4),))
        X = rng.uniform(-1, 1, (3, 2))
        out = mrs_gat(X, mrg, params)
        assert np.allclose(out[2], (X[0] @ weights[0] + X[1] @ weights[0]) / 2.0)

    def test_two_neighbor_softmax_closed_form(self):
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        w = np.eye(1)
        att = np.array([0.0, 1.0])  # logit = leaky(x_src), d_out = 1
        params = GatParams(head_weights=((w, w, w),), att_vectors=(att,))
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
        params = GatParams(head_weights=((np.eye(1),),), att_vectors=(np.zeros(2),))
        with pytest.raises(ValueError, match="got 3 operators but 1 transforms"):
            mrs_gat(np.ones((3, 1)), path_split(), params)
        params = GatParams(head_weights=((np.eye(1),) * 3,) * 2, att_vectors=(np.zeros(2),))
        with pytest.raises(ValueError):
            mrs_gat(np.ones((3, 1)), path_split(), params)


class TestMrsGin:
    def test_single_relation_when_others_zeroed(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        rng = np.random.default_rng(9)
        w_h, w_o = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))
        zero = np.zeros((2, 2))
        params = ((0.5, w_h, w_o), (0.0, zero, zero), (0.0, zero, zero))
        X = rng.uniform(-1, 1, (3, 2))
        adj = operator_for_graph(relation_graph(mrg, 0), RAW).toarray()
        expected = np.maximum((1.5 * X + adj @ X) @ w_h, 0.0) @ w_o
        assert np.allclose(mrs_gin(X, mrg, params), expected)

    def test_identity_mlps_edgeless_triples_input(self):
        g = graph_from_pairs(3, [])
        mrg = all_ties_split(g)
        eye = np.eye(2)
        params = ((0.0, eye, eye),) * 3
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
            mrs_gatedgcn(X, None, mrg, params), X @ params.self_weight
        )

    def test_zero_gate_inputs_give_half_gates(self):
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0, 2.0), method="features"))
        rng = np.random.default_rng(13)
        b = rng.uniform(-1, 1, (2, 2))
        zero = np.zeros((2, 2))
        params = GatedGcnParams(
            self_weight=zero, rel_weights=(b, b, b), edge_weight=zero,
            recv_weight=zero, send_weight=zero,
        )
        X = rng.uniform(-1, 1, (3, 2))
        out = mrs_gatedgcn(X, None, mrg, params)
        expected = (0.5 * (X[0] @ b) + 0.5 * (X[1] @ b)) / (1.0 + GATE_EPS)
        assert np.allclose(out[2], expected)

    def test_saturated_gate_approaches_plain_message(self):
        g = graph_from_pairs(2, [(0, 1)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0), method="features"))
        big = np.full((1, 1), 50.0)
        b = np.array([[2.0]])
        params = GatedGcnParams(
            self_weight=np.zeros((1, 1)), rel_weights=(b, b, b),
            edge_weight=np.zeros((1, 1)), recv_weight=big, send_weight=big,
        )
        X = np.array([[1.0], [1.0]])
        out = mrs_gatedgcn(X, None, mrg, params)
        assert out[1, 0] == pytest.approx(2.0, abs=1e-5)

    def test_edge_attributes_shift_gate(self):
        g = graph_from_pairs(2, [(0, 1)])
        mrg = split_edges(g, OrderingScores((0.0, 1.0), method="features"))
        b = np.array([[1.0]])
        params = GatedGcnParams(
            self_weight=np.zeros((1, 1)), rel_weights=(b, b, b),
            edge_weight=np.array([[100.0]]), recv_weight=np.zeros((1, 1)),
            send_weight=np.zeros((1, 1)),
        )
        X = np.array([[1.0], [0.0]])
        with_attr = mrs_gatedgcn(X, np.array([[1.0]]), mrg, params)
        without = mrs_gatedgcn(X, None, mrg, params)
        assert with_attr[1, 0] > without[1, 0]


class TestTiedReduction:
    """Tied per-relation transforms make the split invisible: the split
    kernel equals the base kernel, run on whole_graph(g) with one transform
    per relation, and on the all-ties split that stands in for it."""

    def _pair(self, seed, n=8, extra=6):
        rng = np.random.default_rng(seed)
        g = random_undirected(rng, n, extra)
        split = split_edges(g, order_degree(g))
        X = rng.uniform(-1, 1, (n, 3))
        return rng, split, whole_graph(g), all_ties_split(g), X

    def _check(self, kernel, split, whole, unsplit, tied, single):
        out = kernel(split, tied)
        assert np.abs(out - kernel(whole, single)).max() < 1e-10
        assert np.abs(out - kernel(unsplit, tied)).max() < 1e-10

    def test_gcn(self):
        rng, split, whole, unsplit, X = self._pair(20)
        w = rng.uniform(-1, 1, (3, 3))
        self._check(
            lambda mrg, p: mrs_gcn(X, mrg, p), split, whole, unsplit,
            (w, w, w), (w,),
        )

    def test_sage(self):
        rng, split, whole, unsplit, X = self._pair(21)
        w, s = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))
        self._check(
            lambda mrg, p: mrs_sage(X, mrg, p), split, whole, unsplit,
            SageParams(rel_weights=(w, w, w), self_weight=s),
            SageParams(rel_weights=(w,), self_weight=s),
        )

    def test_gat(self):
        rng, split, whole, unsplit, X = self._pair(22)
        w1, w2 = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))
        att = (rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
        self._check(
            lambda mrg, p: mrs_gat(X, mrg, p), split, whole, unsplit,
            GatParams(head_weights=((w1, w1, w1), (w2, w2, w2)), att_vectors=att),
            GatParams(head_weights=((w1,), (w2,)), att_vectors=att),
        )

    def test_gatedgcn(self):
        rng, split, whole, unsplit, X = self._pair(23)
        b = rng.uniform(-1, 1, (3, 3))
        gates = {
            name: rng.uniform(-1, 1, (3, 3))
            for name in ("self_weight", "edge_weight", "recv_weight", "send_weight")
        }
        self._check(
            lambda mrg, p: mrs_gatedgcn(X, None, mrg, p), split, whole, unsplit,
            GatedGcnParams(rel_weights=(b, b, b), **gates),
            GatedGcnParams(rel_weights=(b,), **gates),
        )

    def test_gin(self):
        # GIN applies its MLP per relation, so tying does not reduce a real
        # split; the all-ties split with the other relations zeroed does.
        rng, _, whole, unsplit, X = self._pair(24)
        mlp = (0.5, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)))
        zero = (0.0, np.zeros((3, 3)), np.zeros((3, 3)))
        assert np.array_equal(
            mrs_gin(X, whole, (mlp,)),
            mrs_gin(X, unsplit, (zero, zero, mlp)),
        )


class TestIterate:
    """Deep stacks: mrs_linear_layer applied in a loop."""

    def test_dag_mean_relu_reaches_exact_zero(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        ops = [operator_for_graph(g, ROW_MEAN)]
        rng = np.random.default_rng(31)
        X = rng.uniform(-1, 1, (4, 3))
        for _ in range(longest_path_length(g) + 1):
            X = relu(mrs_linear_layer(X, ops, [rng.uniform(-1, 1, (3, 3))]))
        assert np.abs(X).max() == 0.0

    def test_leaf_self_loop_keeps_leaf_alive(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2), (2, 2)])
        ops = [operator_for_graph(g, ROW_MEAN)]
        X = np.abs(np.random.default_rng(32).uniform(0.1, 1, (3, 2)))
        for _ in range(6):
            X = relu(mrs_linear_layer(X, ops, [np.eye(2)]))
        assert np.linalg.norm(X[2]) > 0.0


def gin_expression(X, mrg, params):
    """mrs_gin with one expression per relation, the form it had before it
    worked in place: the oracle of its bytes."""
    total = None
    for op, (eps, w_hidden, w_out) in zip(normalize(mrg, RAW), params):
        s = (1.0 + eps) * X + op @ X
        h = relu(s @ w_hidden) @ w_out
        total = h if total is None else total + h
    return total


def gatedgcn_expression(X, edge_attrs, mrg, params):
    """mrs_gatedgcn with one expression per step, the form it had before it
    worked in place: the oracle of its bytes."""
    b = mrg.base
    recv, send = X @ params.recv_weight, X @ params.send_weight
    num = den = np.zeros((b.n, recv.shape[1]))
    for op, arcs, w in zip(normalize(mrg, RAW), mrg.arcs_by_receiver, params.rel_weights):
        src, dst = b.src[arcs], b.dst[arcs]
        gate_pre = recv[dst] + send[src]
        if edge_attrs is not None:
            gate_pre += edge_attrs[arcs] @ params.edge_weight
        gate = sigmoid(gate_pre)
        segment = sparse.csr_matrix(
            (np.ones(len(src)), np.arange(len(src)), op.indptr),
            shape=(b.n, len(src)),
        )
        num = num + segment @ (gate * (X @ w)[src])
        den = den + segment @ gate
    return X @ params.self_weight + num / (den + GATE_EPS)


@st.composite
def kernel_cases(draw):
    """A weighted directed split with score ties, in which node 0 receives
    no arc, plus features, a seed for parameters and optional attributes."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    pairs = sorted((a, b) for a, b in pairs if b != 0)
    weights = draw(st.lists(st.floats(0.25, 2.0), min_size=len(pairs), max_size=len(pairs)))
    g = graph_from_pairs(n, [(a, b, w) for (a, b), w in zip(pairs, weights)])
    scores = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    mrg = split_edges(g, OrderingScores(tuple(map(float, scores)), method="features"))
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-1, 1, (n, d_in))
    edge_attrs = rng.uniform(-1, 1, (g.num_edges, d_in)) if draw(st.booleans()) else None
    eps = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    return rng, mrg, X, edge_attrs, eps, d_out


class TestInPlaceKernelsEqualExpressions:
    """mrs_gin and mrs_gatedgcn reuse their temporaries; their bytes equal
    the plain expressions they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_gin(self, case):
        rng, mrg, X, _, eps, d_out = case
        params = tuple(
            (e, w_hidden, w_out)
            for e, (_, w_hidden, w_out) in zip(eps, gin_params(rng, X.shape[1], d_out))
        )
        got = mrs_gin(X, mrg, params)
        assert got.tobytes() == gin_expression(X, mrg, params).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_gatedgcn(self, case):
        rng, mrg, X, edge_attrs, _, d_out = case
        params = gatedgcn_params(rng, X.shape[1], d_out)
        got = mrs_gatedgcn(X, edge_attrs, mrg, params)
        want = gatedgcn_expression(X, edge_attrs, mrg, params)
        assert got.tobytes() == want.tobytes()


def gatedgcn_whole_relation(X, edge_attrs, mrg, params):
    """mrs_gatedgcn as it was before it stepped arc blocks: every relation's
    gates and messages at once, summed by one product over the relation.
    The oracle of the blocked kernel's bytes."""
    ops = normalize(mrg, RAW)
    b = mrg.base
    recv, send = X @ params.recv_weight, X @ params.send_weight
    num = np.zeros((b.n, recv.shape[1]))
    den = np.zeros((b.n, recv.shape[1]))
    for op, arcs, w in zip(ops, mrg.arcs_by_receiver, params.rel_weights):
        src, dst = b.src[arcs], b.dst[arcs]
        gate = recv[dst] + send[src]
        if edge_attrs is not None:
            gate += edge_attrs[arcs] @ params.edge_weight
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.divide(1.0, gate, out=gate)
        segment = sparse.csr_matrix(
            (np.ones(len(src)), np.arange(len(src)), op.indptr),
            shape=(b.n, len(src)),
        )
        msg = (X @ w)[src]
        msg *= gate
        num += segment @ msg
        den += segment @ gate
    return X @ params.self_weight + num / (den + GATE_EPS)


def connected_undirected(rng, n, edges):
    """A connected undirected graph on n nodes with the given number of
    distinct edges (2 * edges arcs): a random tree, then random pairs."""
    tree = np.column_stack((rng.integers(0, np.arange(1, n)), np.arange(1, n)))
    pairs = np.sort(np.concatenate((tree, rng.integers(0, n, (3 * edges, 2)))), axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    _, first = np.unique(pairs[:, 0] * n + pairs[:, 1], return_index=True)
    pairs = pairs[np.sort(first)[:edges]].tolist()
    assert len(pairs) == edges
    return graph_from_pairs(n, [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs], undirected=True)


def hub_split():
    """A split whose node 0 receives 7 arcs in one relation, more than a
    block of 2 or 3 arcs, between receivers of one and two arcs."""
    arcs = [(i, 0) for i in range(1, 8)] + [(0, 8), (1, 8), (2, 9), (8, 10), (9, 10)]
    g = graph_from_pairs(11, arcs)
    mrg = split_edges(g, OrderingScores(tuple(map(float, range(11))), method="features"))
    return g, mrg


def one_arc_split():
    """A split in which E2 holds one arc, and E1 several."""
    g = graph_from_pairs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 0)])
    mrg = split_edges(g, OrderingScores(tuple(map(float, range(5))), method="features"))
    return g, mrg


BLOCK_CASES = {
    "hub": hub_split,
    "one_arc_relation": one_arc_split,
    "all_equal": lambda: random_directed_split(40, "all_equal")[1:],
    "ties": lambda: random_directed_split(41, "ties")[1:],
}


class TestGatedGcnArcBlocks:
    """mrs_gatedgcn steps each relation's arcs in blocks of whole receivers;
    its bytes equal those of one product over the relation."""

    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_small_blocks_equal_the_whole_relation(self, monkeypatch, case, block):
        g, mrg = BLOCK_CASES[case]()
        monkeypatch.setattr(convolution, "_ARC_BLOCK", block)
        rng = np.random.default_rng(block)
        X = rng.uniform(-1, 1, (g.n, 4))
        params = gatedgcn_params(rng, 4, 3)
        attrs = rng.uniform(-1, 1, (g.num_edges, 4))
        for edge_attrs in (None, attrs):
            got = mrs_gatedgcn(X, edge_attrs, mrg, params)
            assert np.array_equal(got, gatedgcn_whole_relation(X, edge_attrs, mrg, params))

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.integers(2, 4))
    def test_any_split_at_small_blocks(self, case, block):
        rng, mrg, X, edge_attrs, _, d_out = case
        params = gatedgcn_params(rng, X.shape[1], d_out)
        with mock.patch.object(convolution, "_ARC_BLOCK", block):
            got = mrs_gatedgcn(X, edge_attrs, mrg, params)
        assert np.array_equal(got, gatedgcn_whole_relation(X, edge_attrs, mrg, params))

    def test_cases_cover_what_they_name(self):
        g, mrg = hub_split()
        assert max(np.bincount(g.dst[arcs], minlength=1).max() for arcs in mrg.relations) == 7
        assert sorted(map(len, one_arc_split()[1].relations)) == [0, 1, 4]
        assert [len(r) for r in BLOCK_CASES["all_equal"]()[1].relations[:2]] == [0, 0]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernels_size_graph_at_the_default_block(self, seed):
        # 2,000 nodes, 12,000 arcs, degree split, d = 32: E1 and E2 each
        # span several blocks.
        rng = np.random.default_rng(seed)
        g = connected_undirected(rng, 2000, 6000)
        mrg = split_edges(g, order_degree(g))
        ops = normalize(mrg, RAW)
        assert min(len(convolution._receiver_blocks(op.indptr)) for op in ops[:2]) >= 4
        X = rng.uniform(-1, 1, (g.n, 32))
        params = gatedgcn_params(rng, 32, 32)
        attrs = rng.uniform(-1, 1, (g.num_edges, 32))
        for edge_attrs in (None, attrs):
            got = mrs_gatedgcn(X, edge_attrs, mrg, params)
            assert np.array_equal(got, gatedgcn_whole_relation(X, edge_attrs, mrg, params))

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 6), max_size=12), st.integers(1, 5))
    def test_block_rule(self, counts, block):
        # Row pointers of rows with these arc counts. The blocks cover every
        # row in order; each but the last ends at the first row boundary at
        # or past `block` arcs, and the last holds `block` arcs or more
        # unless it is the only one.
        indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        with mock.patch.object(convolution, "_ARC_BLOCK", block):
            got = convolution._receiver_blocks(indptr)
        rows = [r for lo, hi in got for r in range(lo, hi)]
        assert rows == list(range(len(counts)))
        for lo, hi in got[:-1]:
            assert indptr[hi] - indptr[lo] >= block > indptr[hi - 1] - indptr[lo]
        if len(got) > 1:
            lo, hi = got[-1]
            assert indptr[hi] - indptr[lo] >= block

    def test_memory_does_not_grow_with_the_arcs(self):
        # 400 nodes and 24,000 arcs at d = 32, with edge attributes. Beyond
        # a few (n, d) arrays, one call holds a few blocks' gates and
        # messages; gating every arc at once took about 12 MB here.
        rng = np.random.default_rng(7)
        n, d = 400, 32
        g = connected_undirected(rng, n, 12_000)
        mrg = split_edges(g, order_degree(g))
        X = rng.uniform(-1, 1, (n, d))
        params = gatedgcn_params(rng, d, d)
        attrs = rng.uniform(-1, 1, (g.num_edges, d))
        mrs_gatedgcn(X, attrs, mrg, params)  # builds and caches the operators
        tracemalloc.start()
        try:
            mrs_gatedgcn(X, attrs, mrg, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8 * n * d + 10 * convolution._ARC_BLOCK * d) * 8
