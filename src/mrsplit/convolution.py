"""Message-passing kernels: the component-wise activations, the generic
linear multi-relational layer and the five named convolution variants.

All kernels are pure functions of (features, relations, parameters). No
transformation carries a bias term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse

from .split import (
    ROW_MEAN,
    RAW,
    SYM_GCN,
    MultiRelGraph,
    normalize,
)

# Slope of the attention nonlinearity inside the GAT kernel (the published
# constant, distinct from the leaky_relu activation below).
_GAT_ATT_SLOPE = 0.2

LEAKY_SLOPE = 0.01

# A split has three relations (E1, E2, E3), and GAT runs two attention heads.
_RELATIONS = 3
_GAT_HEADS = 2


def identity(x: np.ndarray) -> np.ndarray:
    return x


def relu(x: np.ndarray) -> np.ndarray:
    # Equals np.where(x > 0, x, 0.0) bit for bit, much faster: fmax maps NaN
    # to 0, and adding +0.0 turns the -0.0 that fmax can pass through into
    # +0.0 while leaving every other value unchanged.
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.fmax(x, LEAKY_SLOPE * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# The component-wise activations a layer or a model config may name.
ACTIVATIONS = {f.__name__: f for f in (identity, relu, leaky_relu, sigmoid)}
ArrayFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LayerParams:
    """Per-layer parameters; which fields are set depends on the variant.

    rel_weights holds one d x d' transform per relation. self_weight is the
    extra previous-state transform (SAGE). att_vectors holds one attention
    vector of length 2*d' per head (GAT, two heads by default). gin holds
    (epsilon, W_hidden, W_out) per relation. gate_* are the GatedGCN
    transforms with gate_eps the denominator stabilizer.
    """

    rel_weights: Optional[tuple[np.ndarray, ...]] = None
    self_weight: Optional[np.ndarray] = None
    att_vectors: Optional[tuple[np.ndarray, ...]] = None
    gin: Optional[tuple[tuple[float, np.ndarray, np.ndarray], ...]] = None
    gate_self: Optional[np.ndarray] = None
    gate_rel: Optional[tuple[np.ndarray, ...]] = None
    gate_edge: Optional[np.ndarray] = None
    gate_recv: Optional[np.ndarray] = None
    gate_send: Optional[np.ndarray] = None
    gate_eps: float = 1e-6


def _uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=shape)


def glorot(rng: np.random.Generator, d_in: int, d_out: int, *lead: int) -> np.ndarray:
    """Glorot-uniform (d_in, d_out) transform, or a (*lead, d_in, d_out) stack
    of them drawn from the same stream as that many separate calls."""
    limit = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(*lead, d_in, d_out))


def linear_params(rng: np.random.Generator, d_in: int, d_out: int) -> LayerParams:
    return LayerParams(
        rel_weights=tuple(glorot(rng, d_in, d_out) for _ in range(_RELATIONS))
    )


def sage_params(rng: np.random.Generator, d_in: int, d_out: int) -> LayerParams:
    return LayerParams(
        rel_weights=tuple(glorot(rng, d_in, d_out) for _ in range(_RELATIONS)),
        self_weight=glorot(rng, d_in, d_out),
    )


def gat_params(rng: np.random.Generator, d_in: int, d_out: int) -> LayerParams:
    # One set of relation transforms per head, flattened head-major.
    return LayerParams(
        rel_weights=tuple(
            glorot(rng, d_in, d_out) for _ in range(_GAT_HEADS * _RELATIONS)
        ),
        att_vectors=tuple(_uniform(rng, 2 * d_out) for _ in range(_GAT_HEADS)),
    )


def gin_params(rng: np.random.Generator, d_in: int, d_out: int) -> LayerParams:
    return LayerParams(
        gin=tuple(
            (0.0, glorot(rng, d_in, d_out), glorot(rng, d_out, d_out))
            for _ in range(_RELATIONS)
        )
    )


def gatedgcn_params(rng: np.random.Generator, d_in: int, d_out: int) -> LayerParams:
    return LayerParams(
        gate_self=glorot(rng, d_in, d_out),
        gate_rel=tuple(glorot(rng, d_in, d_out) for _ in range(_RELATIONS)),
        gate_edge=glorot(rng, d_in, d_out),
        gate_recv=glorot(rng, d_in, d_out),
        gate_send=glorot(rng, d_in, d_out),
    )


def _checked_features(
    X: np.ndarray, ops: Sequence[sparse.csr_matrix], weights: Sequence[np.ndarray]
) -> np.ndarray:
    """X as float64, once there is one transform per operator, every operator
    has one row per row of X, and every transform takes X's feature width."""
    if len(ops) != len(weights):
        raise ValueError(f"got {len(ops)} operators but {len(weights)} transforms")
    X = np.asarray(X, dtype=np.float64)
    for op in ops:
        if op.shape[0] != X.shape[0]:
            raise ValueError(
                f"operator size {op.shape[0]} does not match feature rows {X.shape[0]}"
            )
    if any(w.shape[0] != X.shape[1] for w in weights):
        raise ValueError("transform input dim does not match features")
    return X


def _aggregate(mat: sparse.csr_matrix, Y: np.ndarray) -> np.ndarray:
    """mat applied to the rows of Y, a matrix or a stack flattened to rows."""
    if Y.ndim == 2:
        # A reshaped result would be a view, which numpy cannot reuse as the
        # output of the next add, so a large matrix would pay a new buffer.
        return mat @ Y
    return (mat @ Y.reshape(-1, Y.shape[-1])).reshape(Y.shape)


def relation_sum(
    X: np.ndarray,
    mats: Sequence[sparse.csr_matrix],
    weights: Sequence[np.ndarray],
    self_weight: Optional[np.ndarray] = None,
) -> np.ndarray:
    """sum_k A_k (X W_k), plus X W_self when self_weight is given.

    X is one feature matrix (n, d) or a stack (..., n, d) whose transforms
    are stacks (..., d, d') of their own; each A_k then applies to the
    stack's rows flattened, so a block-diagonal A_k steps a stack of graphs
    exactly as it steps each graph alone. Relations are added in order and
    the self term last; every numpy relation sum goes through here, so all
    callers round alike.
    """
    pre = _aggregate(mats[0], X @ weights[0])
    for mat, w in zip(mats[1:], weights[1:]):
        pre = pre + _aggregate(mat, X @ w)
    if self_weight is not None:
        pre = pre + X @ self_weight
    return pre


def mrs_linear_layer(
    X: np.ndarray,
    ops: Sequence[sparse.csr_matrix],
    weights: Sequence[np.ndarray],
    act: ArrayFn = identity,
) -> np.ndarray:
    """act(sum_k A_k X W_k); with one relation this is a plain convolution."""
    X = _checked_features(X, ops, weights)
    return act(relation_sum(X, ops, weights))


def mrs_gcn(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: ArrayFn = identity
) -> np.ndarray:
    ops = normalize(mrg, SYM_GCN)
    return mrs_linear_layer(X, ops, params.rel_weights, act)


def mrs_sage(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: ArrayFn = identity
) -> np.ndarray:
    """Self transform plus mean-aggregated per-relation messages."""
    ops = normalize(mrg, ROW_MEAN)
    X = _checked_features(X, ops, params.rel_weights)
    return act(relation_sum(X, ops, params.rel_weights, params.self_weight))


def _arc_ends(op: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of every arc a raw operator stores, grouped by receiver
    (row = receiver, column = sender)."""
    receivers = np.arange(op.shape[0])
    return op.indices.astype(np.int64), np.repeat(receivers, np.diff(op.indptr))


def _gat_head(
    X: np.ndarray,
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
    head_weights: Sequence[np.ndarray],
    att: np.ndarray,
) -> np.ndarray:
    src, dst, rel = arcs
    n, d_out = X.shape[0], head_weights[0].shape[1]
    transformed = np.stack([X @ w for w in head_weights])  # (relations, n, d_out)
    z = (transformed @ att[:d_out])[rel, dst] + (transformed @ att[d_out:])[rel, src]
    z = np.where(z >= 0.0, z, _GAT_ATT_SLOPE * z)
    # Softmax over each receiver's in-arcs; receivers without any keep a zero row.
    z_max = np.full(n, -np.inf)
    np.maximum.at(z_max, dst, z)
    e = np.exp(z - z_max[dst])
    alpha = e / np.bincount(dst, weights=e, minlength=n)[dst]
    attention = sparse.csr_matrix(
        (alpha, (dst, rel * n + src)), shape=(n, len(head_weights) * n)
    )
    return attention @ transformed.reshape(-1, d_out)


def mrs_gat(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: ArrayFn = identity
) -> np.ndarray:
    """Two-head attention over per-relation transforms, heads concatenated.

    Attention logits use the edge's relation transform on both endpoints.
    Nodes without in-neighbors get a zero output row (softmax over an empty
    set is undefined).
    """
    X = np.asarray(X, dtype=np.float64)
    heads = len(params.att_vectors)
    rels = len(mrg.relations)
    if len(params.rel_weights) != heads * rels:
        raise ValueError("expected one relation transform per head and relation")
    ends = [_arc_ends(op) for op in normalize(mrg, RAW)]
    arcs = (
        np.concatenate([src for src, _ in ends]),
        np.concatenate([dst for _, dst in ends]),
        np.repeat(np.arange(rels), [len(src) for src, _ in ends]),
    )
    outs = []
    for h in range(heads):
        head_weights = params.rel_weights[h * rels : (h + 1) * rels]
        outs.append(_gat_head(X, arcs, head_weights, params.att_vectors[h]))
    return act(np.concatenate(outs, axis=1))


def mrs_gin(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: ArrayFn = identity
) -> np.ndarray:
    """Sum of one GIN instantiation per edge relation.

    Each instantiation computes MLP_k((1 + eps_k) x_i + sum of raw
    in-neighbor features within relation k), with a two-layer relu MLP.
    """
    X = np.asarray(X, dtype=np.float64)
    ops = normalize(mrg, RAW)
    total = None
    for k, (eps, w_hidden, w_out) in enumerate(params.gin):
        s = (1.0 + eps) * X + ops[k] @ X
        h = relu(s @ w_hidden) @ w_out
        total = h if total is None else total + h
    return act(total)


def _edge_attr_rows(
    edge_attrs: dict[tuple[int, int], np.ndarray],
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
) -> np.ndarray:
    """Row e holds the attribute of arc src[e] -> dst[e], or zeros when it has
    none; attributes of pairs that are not arcs are ignored."""
    pairs = np.array(list(edge_attrs), dtype=np.int64).reshape(-1, 2)
    vecs = np.array(list(edge_attrs.values()), dtype=np.float64)
    rows = np.zeros((len(src), vecs.shape[1]))
    if len(src) == 0:
        return rows
    keys = src * n + dst
    order = np.argsort(keys)
    wanted = pairs[:, 0] * n + pairs[:, 1]
    at = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), len(keys) - 1)]
    hit = ((pairs >= 0) & (pairs < n)).all(axis=1) & (keys[at] == wanted)
    rows[at[hit]] = vecs[hit]
    return rows


def mrs_gatedgcn(
    X: np.ndarray,
    edge_attrs: Optional[dict[tuple[int, int], np.ndarray]],
    mrg: MultiRelGraph,
    params: LayerParams,
    act: ArrayFn = identity,
) -> np.ndarray:
    """Gated aggregation with per-relation message transforms.

    out_i = A x_i + sum_j(gate_ij * B_f x_j) / (sum_j gate_ij + eps), with
    gate_ij = sigmoid(D x_i + E x_j + C e_ij). Missing edge attributes
    default to zero vectors.
    """
    X = np.asarray(X, dtype=np.float64)
    n = mrg.base.n
    recv, send = X @ params.gate_recv, X @ params.gate_send
    num = den = np.zeros((n, recv.shape[1]))
    for k, op in enumerate(normalize(mrg, RAW)):
        src, dst = _arc_ends(op)
        gate_pre = recv[dst] + send[src]
        if edge_attrs:
            gate_pre += _edge_attr_rows(edge_attrs, src, dst, n) @ params.gate_edge
        gate = 1.0 / (1.0 + np.exp(-gate_pre))
        # Arcs are stored by receiver, so the operator's row pointers make
        # row i of this matrix sum the arcs that arrive at node i.
        segment = sparse.csr_matrix(
            (np.ones(len(src)), np.arange(len(src)), op.indptr),
            shape=(n, len(src)),
        )
        num = num + segment @ (gate * (X @ params.gate_rel[k])[src])
        den = den + segment @ gate
    return act(X @ params.gate_self + num / (den + params.gate_eps))

