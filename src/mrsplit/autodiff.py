"""Minimal reverse-mode differentiation on numpy arrays.

Just enough machinery for the desk-scale trainer: dense and sparse matrix
products, the fused multi-relational layer sum, the activations used by the
convolutions, concatenation, element-wise maximum, and the MAE loss.
Gradients accumulate on Tensor leaves after backward().
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse

from . import convolution


class Tensor:
    """A value in the computation graph with an optional gradient."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(
        self,
        value,
        parents: tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._backward = backward


def parameter(value) -> Tensor:
    return Tensor(value)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # The first gradient is copied: g may be another node's grad (add passes
    # its own through), which later += calls would otherwise alias.
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value + b.value, parents=(a, b))

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    out._backward = back
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value @ b.value, parents=(a, b))

    def back(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    out._backward = back
    return out


def spmm(op: sparse.csr_matrix, x: Tensor) -> Tensor:
    """Fixed CSR operator times a dense tensor; only x gets a gradient."""
    out = Tensor(op @ x.value, parents=(x,))
    out._backward = lambda g: _accumulate(x, op.T @ g)
    return out


def relation_sum(
    h: Tensor,
    ops: Sequence[sparse.csr_matrix],
    ops_t: Sequence[sparse.csr_matrix],
    ws: Sequence[Tensor],
    self_w: Optional[Tensor] = None,
) -> Tensor:
    """sum_k A_k (h W_k), plus h W_self when self_w is given, as one node.

    The forward is convolution.relation_sum. ops_t holds each operator's
    transpose in CSR form for the backward pass. The backward feeds h its
    relation terms in order and the self term last, the order in which a
    chain of matmul, spmm and add nodes would, so gradients round alike.
    """
    value = convolution.relation_sum(
        h.value, ops, [w.value for w in ws], None if self_w is None else self_w.value
    )
    out = Tensor(value, parents=(h, *ws) + (() if self_w is None else (self_w,)))

    def back(g):
        for op_t, w in zip(ops_t, ws):
            t = op_t @ g
            _accumulate(w, h.value.T @ t)
            _accumulate(h, t @ w.value.T)
        if self_w is not None:
            _accumulate(self_w, h.value.T @ g)
            _accumulate(h, g @ self_w.value.T)

    out._backward = back
    return out


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a (1, d) row vector to every row of x."""
    out = Tensor(x.value + b.value, parents=(x, b))

    def back(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=0, keepdims=True))

    out._backward = back
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(convolution.relu(x.value), parents=(x,))
    out._backward = lambda g: _accumulate(x, g * (x.value > 0))
    return out


def leaky_relu(x: Tensor) -> Tensor:
    out = Tensor(convolution.leaky_relu(x.value), parents=(x,))
    # Scales g by 1 where x >= 0 and by the slope elsewhere (NaN included).
    out._backward = lambda g: _accumulate(
        x, g * np.maximum(x.value >= 0, convolution.LEAKY_SLOPE)
    )
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = convolution.sigmoid(x.value)
    out = Tensor(s, parents=(x,))
    out._backward = lambda g: _accumulate(x, g * s * (1.0 - s))
    return out


def identity(x: Tensor) -> Tensor:
    return x


def concat_cols(xs: Sequence[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([x.value for x in xs], axis=1), parents=tuple(xs))
    widths = [x.value.shape[1] for x in xs]

    def back(g):
        offset = 0
        for x, w in zip(xs, widths):
            _accumulate(x, g[:, offset : offset + w])
            offset += w

    out._backward = back
    return out


def elem_max(xs: Sequence[Tensor]) -> Tensor:
    """Element-wise maximum across same-shaped tensors.

    Subgradient goes winner-takes-all to the earliest input on ties.
    """
    stacked = np.stack([x.value for x in xs])
    winner = np.argmax(stacked, axis=0)  # first max wins ties
    out = Tensor(np.max(stacked, axis=0), parents=tuple(xs))

    def back(g):
        for k, x in enumerate(xs):
            _accumulate(x, g * (winner == k))

    out._backward = back
    return out


def mae_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error; subgradient at exact zeros is zero."""
    target = np.asarray(target, dtype=np.float64)
    diff = pred.value - target
    out = Tensor(np.mean(np.abs(diff)), parents=(pred,))
    out._backward = lambda g: _accumulate(pred, g * np.sign(diff) / diff.size)
    return out


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar (or any) root with seed gradient 1."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
