"""Message-passing kernels: the component-wise activations, the generic
linear multi-relational layer and the five named convolution variants.

All kernels are pure functions of (features, relations, parameters), and
each family takes one parameter type that its factory draws. No
transformation carries a bias term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # Equals np.where(x > 0, x, 0.0) bit for bit, much faster: fmax maps NaN
    # to 0, and adding +0.0 turns the -0.0 that fmax can pass through into
    # +0.0 while leaving every other value unchanged. out=x works in place.
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.fmax(x, LEAKY_SLOPE * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# The component-wise activations a model config may name.
ACTIVATIONS = {f.__name__: f for f in (identity, relu, leaky_relu, sigmoid)}


# Added to the GatedGCN gate sum before dividing by it.
GATE_EPS = 1e-6

# About how many arcs of a relation GatedGCN gates at a time.
_ARC_BLOCK = 1024

# GCN: one d x d' transform per relation.
GcnParams = tuple[np.ndarray, ...]
# GIN: one (epsilon, W_hidden, W_out) triple per relation.
GinParams = tuple[tuple[float, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class SageParams:
    """One d x d' transform per relation and the previous-state transform."""

    rel_weights: tuple[np.ndarray, ...]
    self_weight: np.ndarray


@dataclass(frozen=True)
class GatParams:
    """Per head, one d x d' transform per relation (head_weights[h][k]) and
    one attention vector of length 2 d' (att_vectors[h])."""

    head_weights: tuple[tuple[np.ndarray, ...], ...]
    att_vectors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class GatedGcnParams:
    """The d x d' transforms of out_i = A x_i + sum_j(gate_ij * B_k x_j) /
    (sum_j gate_ij + eps), gate_ij = sigmoid(D x_i + E x_j + C e_ij): A is
    self_weight, B_k rel_weights[k], C edge_weight (d_e x d'), D recv_weight
    and E send_weight."""

    self_weight: np.ndarray
    rel_weights: tuple[np.ndarray, ...]
    edge_weight: np.ndarray
    recv_weight: np.ndarray
    send_weight: np.ndarray


def _uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=shape)


def glorot(rng: np.random.Generator, d_in: int, d_out: int, *lead: int) -> np.ndarray:
    """Glorot-uniform (d_in, d_out) transform, or a (*lead, d_in, d_out) stack
    of them drawn from the same stream as that many separate calls."""
    limit = math.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(*lead, d_in, d_out))


def linear_params(rng: np.random.Generator, d_in: int, d_out: int) -> GcnParams:
    return tuple(glorot(rng, d_in, d_out) for _ in range(_RELATIONS))


def sage_params(rng: np.random.Generator, d_in: int, d_out: int) -> SageParams:
    return SageParams(
        rel_weights=tuple(glorot(rng, d_in, d_out) for _ in range(_RELATIONS)),
        self_weight=glorot(rng, d_in, d_out),
    )


def gat_params(rng: np.random.Generator, d_in: int, d_out: int) -> GatParams:
    return GatParams(
        head_weights=tuple(
            tuple(glorot(rng, d_in, d_out) for _ in range(_RELATIONS))
            for _ in range(_GAT_HEADS)
        ),
        att_vectors=tuple(_uniform(rng, 2 * d_out) for _ in range(_GAT_HEADS)),
    )


def gin_params(rng: np.random.Generator, d_in: int, d_out: int) -> GinParams:
    return tuple(
        (0.0, glorot(rng, d_in, d_out), glorot(rng, d_out, d_out))
        for _ in range(_RELATIONS)
    )


def gatedgcn_params(rng: np.random.Generator, d_in: int, d_out: int) -> GatedGcnParams:
    return GatedGcnParams(
        self_weight=glorot(rng, d_in, d_out),
        rel_weights=tuple(glorot(rng, d_in, d_out) for _ in range(_RELATIONS)),
        edge_weight=glorot(rng, d_in, d_out),
        recv_weight=glorot(rng, d_in, d_out),
        send_weight=glorot(rng, d_in, d_out),
    )


def _checked_features(
    X: np.ndarray,
    ops: Sequence[sparse.csr_matrix],
    weights: Sequence[np.ndarray],
    *others: np.ndarray,
) -> np.ndarray:
    """X as float64, once X is 2-D, there is one transform in weights per
    operator, every operator has one row per row of X, and every transform
    in weights and others takes X's feature width."""
    if len(ops) != len(weights):
        raise ValueError(f"got {len(ops)} operators but {len(weights)} transforms")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features of shape {X.shape}, expected (nodes, width)")
    for op in ops:
        if op.shape[0] != X.shape[0]:
            raise ValueError(
                f"operator size {op.shape[0]} does not match feature rows {X.shape[0]}"
            )
    if any(w.shape[0] != X.shape[1] for w in (*weights, *others)):
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
    X: np.ndarray, ops: Sequence[sparse.csr_matrix], weights: Sequence[np.ndarray]
) -> np.ndarray:
    """sum_k A_k X W_k; with one relation this is a plain convolution."""
    X = _checked_features(X, ops, weights)
    return relation_sum(X, ops, weights)


def mrs_gcn(X: np.ndarray, mrg: MultiRelGraph, params: GcnParams) -> np.ndarray:
    return mrs_linear_layer(X, normalize(mrg, SYM_GCN), params)


def mrs_sage(X: np.ndarray, mrg: MultiRelGraph, params: SageParams) -> np.ndarray:
    """Self transform plus mean-aggregated per-relation messages."""
    ops = normalize(mrg, ROW_MEAN)
    X = _checked_features(X, ops, params.rel_weights, params.self_weight)
    return relation_sum(X, ops, params.rel_weights, params.self_weight)


def _gat_head(
    X: np.ndarray,
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
    head_weights: Sequence[np.ndarray],
    att: np.ndarray,
) -> np.ndarray:
    src, dst, rel = arcs
    n, d_out = X.shape[0], head_weights[0].shape[1]
    if np.shape(att) != (2 * d_out,):
        raise ValueError(f"attention vector of shape {np.shape(att)}, expected ({2 * d_out},)")
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


def mrs_gat(X: np.ndarray, mrg: MultiRelGraph, params: GatParams) -> np.ndarray:
    """Multi-head attention over per-relation transforms, heads concatenated.

    Attention logits use the edge's relation transform on both endpoints.
    Nodes without in-neighbors get a zero output row (softmax over an empty
    set is undefined).
    """
    ops = normalize(mrg, RAW)
    by_receiver = mrg.arcs_by_receiver
    order = np.concatenate(by_receiver)
    arcs = (
        mrg.base.src[order],
        mrg.base.dst[order],
        np.repeat(np.arange(len(ops)), [len(a) for a in by_receiver]),
    )
    outs = []
    for weights, att in zip(params.head_weights, params.att_vectors, strict=True):
        X = _checked_features(X, ops, weights)
        outs.append(_gat_head(X, arcs, weights, att))
    return np.concatenate(outs, axis=1)


def mrs_gin(X: np.ndarray, mrg: MultiRelGraph, params: GinParams) -> np.ndarray:
    """Sum of one GIN instantiation per edge relation.

    Each instantiation computes MLP_k((1 + eps_k) x_i + sum of raw
    in-neighbor features within relation k), with a two-layer relu MLP.
    """
    ops = normalize(mrg, RAW)
    X = _checked_features(X, ops, [w_hidden for _, w_hidden, _ in params])
    total = None
    for op, (eps, w_hidden, w_out) in zip(ops, params):
        if w_out.shape[0] != w_hidden.shape[1]:
            raise ValueError(
                f"W_out input dim {w_out.shape[0]} does not match "
                f"W_hidden output dim {w_hidden.shape[1]}"
            )
        s = op @ X
        s += (1.0 + eps) * X
        z = s @ w_hidden
        h = relu(z, out=z) @ w_out
        if total is None:
            total = h
        else:
            total += h
    return total


def _receiver_blocks(indptr: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges (lo, hi) that cover the rows of a CSR with row pointers
    indptr, in order. Each range ends at the first row boundary at or past
    _ARC_BLOCK arcs from its start, and a last range of fewer arcs joins
    the one before it: a lone arc's one-row attribute product would take
    another BLAS path, which rounds differently."""
    n = len(indptr) - 1
    cuts = [0]
    while cuts[-1] < n:
        cuts.append(min(int(np.searchsorted(indptr, indptr[cuts[-1]] + _ARC_BLOCK)), n))
    if len(cuts) > 2 and indptr[n] - indptr[cuts[-2]] < _ARC_BLOCK:
        del cuts[-2]
    return list(zip(cuts[:-1], cuts[1:]))


def mrs_gatedgcn(
    X: np.ndarray,
    edge_attrs: Optional[np.ndarray],
    mrg: MultiRelGraph,
    params: GatedGcnParams,
) -> np.ndarray:
    """Gated aggregation with per-relation message transforms (see
    GatedGcnParams). Row e of edge_attrs, shape (mrg.base.num_edges, d_e),
    is the attribute of base arc e; None gives every arc a zero attribute.

    Each relation's gates and messages are built one block of whole
    receivers at a time (see _receiver_blocks), so beyond the (n, d')
    arrays the kernel holds about _ARC_BLOCK arcs' worth of them, however
    many arcs there are.
    """
    ops = normalize(mrg, RAW)
    X = _checked_features(
        X, ops, params.rel_weights,
        params.self_weight, params.recv_weight, params.send_weight,
    )
    b = mrg.base
    if edge_attrs is not None:
        edge_attrs = np.asarray(edge_attrs, dtype=np.float64)
        if edge_attrs.shape != (b.num_edges, params.edge_weight.shape[0]):
            raise ValueError(
                f"edge attributes of shape {edge_attrs.shape}, expected "
                f"({b.num_edges}, {params.edge_weight.shape[0]}): one row per arc"
            )
    recv, send = X @ params.recv_weight, X @ params.send_weight
    num = np.zeros((b.n, recv.shape[1]))
    den = np.zeros((b.n, recv.shape[1]))
    for op, arcs, w in zip(ops, mrg.arcs_by_receiver, params.rel_weights):
        xw = X @ w
        # arcs is in the operator's order: by receiver, then by sender. A
        # block holds whole receivers, so each row sums its arcs from 0.0 in
        # the same order as one product over the relation would.
        for lo, hi in _receiver_blocks(op.indptr):
            start, stop = op.indptr[lo], op.indptr[hi]
            part = arcs[start:stop]
            src, dst = b.src[part], b.dst[part]
            gate = recv[dst]
            gate += send[src]
            if edge_attrs is not None:
                gate += edge_attrs[part] @ params.edge_weight
            # sigmoid(gate) in place, the same operations in the same order.
            np.negative(gate, out=gate)
            np.exp(gate, out=gate)
            gate += 1.0
            np.divide(1.0, gate, out=gate)
            # Row i - lo of this matrix sums the block's arcs that arrive at i.
            segment = sparse.csr_matrix(
                (np.ones(len(part)), np.arange(len(part)), op.indptr[lo : hi + 1] - start),
                shape=(hi - lo, len(part)),
            )
            msg = xw[src]
            msg *= gate
            num[lo:hi] += segment @ msg
            den[lo:hi] += segment @ gate
    # X @ self_weight + num / (den + GATE_EPS), in place.
    den += GATE_EPS
    num /= den
    out = X @ params.self_weight
    out += num
    return out
