"""Reverse-mode engine: per-operation gradient checks against central
finite differences, plus the documented subgradient conventions."""

import numpy as np
import pytest
from scipy import sparse

from mrsplit import autodiff as ad
from mrsplit.convolution import ACTIVATIONS

FD_STEP = 1e-5
FD_RTOL = 1e-5


def fd_check(build_loss, tensors):
    """Compare backward() gradients of a scalar loss against central
    finite differences over every entry of every parameter tensor."""
    loss = build_loss()
    for t in tensors:
        t.grad = None
    ad.backward(loss)
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.value)
        numeric = np.zeros_like(t.value)
        flat = t.value.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            hi = float(build_loss().value)
            flat[idx] = orig - FD_STEP
            lo = float(build_loss().value)
            flat[idx] = orig
            numeric.ravel()[idx] = (hi - lo) / (2.0 * FD_STEP)
        scale = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() / scale < FD_RTOL


def scalar_sum(x):
    # reduce to a scalar through mae against zero: mean(|x|)
    return ad.mae_loss(x, np.zeros(x.value.shape))


class TestOpGradients:
    def test_matmul(self):
        rng = np.random.default_rng(0)
        a = ad.parameter(rng.uniform(0.1, 1, (3, 4)))
        b = ad.parameter(rng.uniform(0.1, 1, (4, 2)))
        fd_check(lambda: scalar_sum(ad.matmul(a, b)), [a, b])

    def test_add(self):
        rng = np.random.default_rng(1)
        a = ad.parameter(rng.uniform(0.1, 1, (3, 3)))
        b = ad.parameter(rng.uniform(0.1, 1, (3, 3)))
        fd_check(lambda: scalar_sum(ad.add(a, b)), [a, b])

    def test_spmm(self):
        rng = np.random.default_rng(2)
        op = sparse.random(4, 4, density=0.5, random_state=3, format="csr")
        x = ad.parameter(rng.uniform(0.1, 1, (4, 3)))
        fd_check(lambda: scalar_sum(ad.spmm(op, x)), [x])

    def test_relation_sum(self):
        rng = np.random.default_rng(3)
        ops = [sparse.random(4, 4, density=0.5, random_state=k, format="csr") for k in range(3)]
        ops_t = [op.T.tocsr() for op in ops]
        h = ad.parameter(rng.uniform(0.1, 1, (4, 3)))
        ws = [ad.parameter(rng.uniform(0.1, 1, (3, 2))) for _ in ops]
        self_w = ad.parameter(rng.uniform(0.1, 1, (3, 2)))
        fd_check(
            lambda: scalar_sum(ad.relation_sum(h, ops, ops_t, ws, self_w)),
            [h, *ws, self_w],
        )

    def test_add_rowvec(self):
        rng = np.random.default_rng(4)
        x = ad.parameter(rng.uniform(0.1, 1, (5, 3)))
        b = ad.parameter(rng.uniform(0.1, 1, (1, 3)))
        fd_check(lambda: scalar_sum(ad.add_rowvec(x, b)), [x, b])

    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1, 1, (4, 4))
        vals[np.abs(vals) < 0.05] = 0.1  # keep FD windows off the kink
        x = ad.parameter(vals)
        fd_check(lambda: scalar_sum(ad.relu(x)), [x])

    def test_leaky_relu(self):
        rng = np.random.default_rng(6)
        vals = rng.uniform(-1, 1, (4, 4))
        vals[np.abs(vals) < 0.05] = -0.2
        x = ad.parameter(vals)
        fd_check(lambda: scalar_sum(ad.leaky_relu(x)), [x])

    def test_sigmoid(self):
        rng = np.random.default_rng(7)
        x = ad.parameter(rng.uniform(-2, 2, (3, 3)))
        fd_check(lambda: scalar_sum(ad.sigmoid(x)), [x])

    def test_concat_cols(self):
        rng = np.random.default_rng(8)
        a = ad.parameter(rng.uniform(0.1, 1, (3, 2)))
        b = ad.parameter(rng.uniform(0.1, 1, (3, 4)))
        fd_check(lambda: scalar_sum(ad.concat_cols([a, b])), [a, b])

    def test_elem_max(self):
        rng = np.random.default_rng(9)
        a = ad.parameter(rng.uniform(0.0, 1, (3, 3)))
        b = ad.parameter(a.value + rng.uniform(0.1, 0.5, (3, 3)) * rng.choice([-1, 1], (3, 3)))
        fd_check(lambda: scalar_sum(ad.elem_max([a, b])), [a, b])

    def test_mae_loss(self):
        rng = np.random.default_rng(11)
        target = rng.uniform(-1, 1, (4, 1))
        x = ad.parameter(target + rng.uniform(0.2, 0.7, (4, 1)) * rng.choice([-1, 1], (4, 1)))
        fd_check(lambda: ad.mae_loss(x, target), [x])


class TestConventions:
    def test_mae_subgradient_zero_at_zero(self):
        x = ad.parameter(np.array([[1.0], [2.0]]))
        loss = ad.mae_loss(x, np.array([[1.0], [2.0]]))
        ad.backward(loss)
        assert np.all(x.grad == 0.0)
        assert loss.value == 0.0

    def test_elem_max_tie_goes_to_first(self):
        a = ad.parameter(np.array([[2.0]]))
        b = ad.parameter(np.array([[2.0]]))
        out = ad.elem_max([a, b])
        ad.backward(out)
        assert a.grad[0, 0] == 1.0
        assert b.grad[0, 0] == 0.0

    def test_shared_subexpression_accumulates(self):
        a = ad.parameter(np.array([[1.0]]))
        out = ad.add(a, a)
        ad.backward(out)
        assert a.grad[0, 0] == 2.0

    def test_linear_layer_closed_form(self):
        # d/dW mean|XW - y| = X^T sign(XW - y) / N
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (5, 3))
        y = rng.uniform(-1, 1, (5, 1))
        w = ad.parameter(rng.uniform(-1, 1, (3, 1)))
        loss = ad.mae_loss(ad.matmul(ad.Tensor(X), w), y)
        ad.backward(loss)
        expected = X.T @ np.sign(X @ w.value - y) / y.size
        assert np.allclose(w.grad, expected)

    def test_identity_passthrough(self):
        a = ad.parameter(np.ones((2, 2)))
        assert ad.identity(a) is a

    def test_relu_gradient_masks_negatives(self):
        x = ad.parameter(np.array([[-1.0, 2.0]]))
        out = ad.relu(x)
        ad.backward(out)
        assert np.array_equal(x.grad, [[0.0, 1.0]])

    def test_leaky_relu_gradient_scales_negatives(self):
        x = ad.parameter(np.array([[-1.0, -0.0, 0.0, 2.0, np.nan]]))
        ad.backward(ad.leaky_relu(x))
        assert np.array_equal(x.grad, [[0.01, 1.0, 1.0, 1.0, 0.01]])

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_node_forward_is_the_table_function(self, name):
        x = np.array([-0.0, 0.0, np.nan, -np.inf, 5e-324, -5e-324, 3.0, -3.0] * 3)
        got = getattr(ad, name)(ad.Tensor(x)).value
        expected = ACTIVATIONS[name](x)
        assert got.tobytes() == expected.tobytes()

    def test_first_gradient_is_not_aliased(self):
        # The inner add receives the root's gradient array and passes it on
        # to a; an uncopied first gradient would make a.grad that same array,
        # and the inner add's += would then leak into b.
        a = ad.parameter(np.array([[1.0]]))
        b = ad.parameter(np.array([[1.0]]))
        ad.backward(ad.add(ad.add(a, b), a))
        assert a.grad[0, 0] == 2.0
        assert b.grad[0, 0] == 1.0

    def test_concat_and_add_gradients_do_not_alias(self):
        # matmul hands its fresh product to e uncopied; add passes e's grad
        # on whole, and concat_cols passes views of c's and c2's. Every
        # gradient must still own its memory.
        rng = np.random.default_rng(14)
        x = ad.parameter(rng.uniform(-1, 1, (3, 2)))
        y = ad.parameter(rng.uniform(-1, 1, (3, 2)))
        w = ad.parameter(rng.uniform(-1, 1, (4, 1)))
        c, c2 = ad.concat_cols([x, y]), ad.concat_cols([y, x])
        e = ad.add(c, c2)
        ad.backward(ad.matmul(e, w))
        grads = [t.grad for t in (x, y, w, c, c2, e)]
        for i, a in enumerate(grads):
            for b in grads[i + 1 :]:
                assert not np.shares_memory(a, b)
        col = np.ones((3, 1)) @ w.value.T
        assert np.array_equal(e.grad, col)
        assert np.array_equal(x.grad, col[:, :2] + col[:, 2:])
        assert np.array_equal(y.grad, col[:, 2:] + col[:, :2])

    def test_relu_forward_bitwise_equals_where(self):
        specials = np.array(
            [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
             5e-324, -5e-324, 1e-310, -1e-310, 2.0, -2.0]
        )
        # Every length up to 40 puts each special both in vectorized blocks
        # and in the tail; the strided view takes a non-contiguous path.
        cases = [np.resize(np.roll(specials, k), n) for n in range(1, 41) for k in range(3)]
        cases.append(np.resize(specials, (12, 12))[:, ::5])
        for x in cases:
            expected = np.where(x > 0, x, 0.0)
            got = ad.relu(ad.Tensor(x)).value
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), x


def chained_relation_sum(h, ops, ws, self_w):
    """The per-relation matmul -> spmm -> add chain that ad.relation_sum
    replaced in the trainer, kept as its oracle."""
    pre = None
    for op, w in zip(ops, ws):
        term = ad.spmm(op, ad.matmul(h, w))
        pre = term if pre is None else ad.add(pre, term)
    if self_w is not None:
        pre = ad.add(pre, ad.matmul(h, self_w))
    return pre


class TestRelationSumMatchesChain:
    """The fused node rounds exactly as the chain it replaced: same forward
    value and bitwise-equal gradients, also when h has a second consumer
    whose gradient reaches h first (residual add, JK concat or max)."""

    N, D_IN, D = 11, 3, 5

    def _run(self, fused, relations, self_term, consumer):
        rng = np.random.default_rng(100 + 10 * relations + self_term)
        ops = [
            sparse.random(self.N, self.N, density=0.35, random_state=rng, format="csr")
            for _ in range(relations)
        ]
        X = rng.uniform(-1, 1, (self.N, self.D_IN))
        embed = ad.parameter(rng.uniform(-1, 1, (self.D_IN, self.D)))
        ws = [ad.parameter(rng.uniform(-1, 1, (self.D, self.D))) for _ in ops]
        self_w = ad.parameter(rng.uniform(-1, 1, (self.D, self.D))) if self_term else None
        target = rng.uniform(-1, 1, (self.N, 2 * self.D if consumer == "cat" else self.D))
        h = ad.matmul(ad.Tensor(X), embed)
        if fused:
            pre = ad.relation_sum(h, ops, [op.T.tocsr() for op in ops], ws, self_w)
        else:
            pre = chained_relation_sum(h, ops, ws, self_w)
        out = ad.relu(pre)
        if consumer == "add":
            out = ad.add(out, h)
        elif consumer == "cat":
            out = ad.concat_cols([h, out])
        elif consumer == "max":
            out = ad.elem_max([h, out])
        loss = ad.mae_loss(out, target)
        ad.backward(loss)
        leaves = [embed, *ws] + ([self_w] if self_term else [])
        return [loss.value, pre.value, h.grad] + [t.grad for t in leaves]

    @pytest.mark.parametrize("consumer", [None, "add", "cat", "max"])
    @pytest.mark.parametrize("self_term", [False, True])
    @pytest.mark.parametrize("relations", [1, 3])
    def test_value_and_gradients_equal_chain(self, relations, self_term, consumer):
        fused = self._run(True, relations, self_term, consumer)
        chained = self._run(False, relations, self_term, consumer)
        assert len(fused) == len(chained)
        for got, expected in zip(fused, chained):
            assert np.array_equal(got, expected)
