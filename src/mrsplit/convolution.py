"""Message-passing kernels: the generic linear multi-relational layer and
the five named convolution variants, plus layer iteration for trajectories.

All kernels are pure functions of (features, relations, parameters). No
transformation carries a bias term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .split import (
    ROW_MEAN,
    RAW,
    SYM_GCN,
    MultiRelGraph,
    RelationOperator,
    normalize,
    operator_for_graph,
)

# Slope of the attention nonlinearity inside the GAT kernel (the published
# constant, distinct from the configurable leaky_relu activation below).
_GAT_ATT_SLOPE = 0.2


@dataclass(frozen=True)
class Activation:
    """Component-wise activation tag: identity, relu, leaky_relu, sigmoid."""

    kind: str
    slope: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "relu", "leaky_relu", "sigmoid"):
            raise ValueError(f"unknown activation: {self.kind!r}")
        if self.kind == "leaky_relu" and not (0.0 < self.slope < 1.0):
            raise ValueError("leaky_relu slope must lie in (0, 1)")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return x
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "leaky_relu":
            return np.where(x >= 0.0, x, self.slope * x)
        return 1.0 / (1.0 + np.exp(-x))


IDENTITY = Activation("identity")
RELU = Activation("relu")
LEAKY_RELU = Activation("leaky_relu")


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


def glorot(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_in, d_out))


def linear_params(
    rng: np.random.Generator, d_in: int, d_out: int, relations: int = 3
) -> LayerParams:
    return LayerParams(
        rel_weights=tuple(glorot(rng, d_in, d_out) for _ in range(relations))
    )


def sage_params(
    rng: np.random.Generator, d_in: int, d_out: int, relations: int = 3
) -> LayerParams:
    return LayerParams(
        rel_weights=tuple(glorot(rng, d_in, d_out) for _ in range(relations)),
        self_weight=glorot(rng, d_in, d_out),
    )


def gat_params(
    rng: np.random.Generator, d_in: int, d_out: int, relations: int = 3, heads: int = 2
) -> LayerParams:
    # One set of relation transforms per head, flattened head-major.
    return LayerParams(
        rel_weights=tuple(
            glorot(rng, d_in, d_out) for _ in range(heads * relations)
        ),
        att_vectors=tuple(_uniform(rng, 2 * d_out) for _ in range(heads)),
    )


def gin_params(
    rng: np.random.Generator, d_in: int, d_out: int, relations: int = 3
) -> LayerParams:
    return LayerParams(
        gin=tuple(
            (0.0, glorot(rng, d_in, d_out), glorot(rng, d_out, d_out))
            for _ in range(relations)
        )
    )


def gatedgcn_params(
    rng: np.random.Generator, d_in: int, d_out: int, relations: int = 3
) -> LayerParams:
    return LayerParams(
        gate_self=glorot(rng, d_in, d_out),
        gate_rel=tuple(glorot(rng, d_in, d_out) for _ in range(relations)),
        gate_edge=glorot(rng, d_in, d_out),
        gate_recv=glorot(rng, d_in, d_out),
        gate_send=glorot(rng, d_in, d_out),
    )


def _check_dims(X: np.ndarray, ops: Sequence[RelationOperator]) -> None:
    for op in ops:
        if op.n != X.shape[0]:
            raise ValueError(
                f"operator size {op.n} does not match feature rows {X.shape[0]}"
            )


def relation_sum(
    X: np.ndarray,
    mats: Sequence,
    weights: Sequence[np.ndarray],
    self_weight: Optional[np.ndarray] = None,
) -> np.ndarray:
    """sum_k A_k (X W_k), plus X W_self when self_weight is given.

    Relations are added in order and the self term last; every numpy
    relation sum goes through here, so all callers round alike.
    """
    pre = mats[0] @ (X @ weights[0])
    for mat, w in zip(mats[1:], weights[1:]):
        pre = pre + mat @ (X @ w)
    if self_weight is not None:
        pre = pre + X @ self_weight
    return pre


def mrs_linear_layer(
    X: np.ndarray,
    ops: Sequence[RelationOperator],
    weights: Sequence[np.ndarray],
    act: Activation = IDENTITY,
) -> np.ndarray:
    """act(sum_k A_k X W_k); with one relation this is a plain convolution."""
    if len(ops) != len(weights):
        raise ValueError(
            f"got {len(ops)} operators but {len(weights)} transforms"
        )
    X = np.asarray(X, dtype=np.float64)
    _check_dims(X, ops)
    if any(w.shape[0] != X.shape[1] for w in weights):
        raise ValueError("transform input dim does not match features")
    return act(relation_sum(X, [op.matrix for op in ops], weights))


def mrs_gcn(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: Activation = IDENTITY
) -> np.ndarray:
    ops = normalize(mrg, SYM_GCN)
    return mrs_linear_layer(X, ops, params.rel_weights, act)


def mrs_sage(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: Activation = IDENTITY
) -> np.ndarray:
    """Self transform plus mean-aggregated per-relation messages."""
    X = np.asarray(X, dtype=np.float64)
    mats = [op.matrix for op in normalize(mrg, ROW_MEAN)]
    return act(relation_sum(X, mats, params.rel_weights, params.self_weight))


def _gat_head(
    X: np.ndarray,
    mrg: MultiRelGraph,
    head_weights: Sequence[np.ndarray],
    att: np.ndarray,
) -> np.ndarray:
    n = mrg.base.n
    d_out = head_weights[0].shape[1]
    transformed = [X @ w for w in head_weights]
    srcs, dsts, logits, msgs = [], [], [], []
    for k, rel_edges in enumerate(mrg.relations):
        for src, dst, _w in rel_edges:
            m_src = transformed[k][src]
            m_dst = transformed[k][dst]
            z = float(att[:d_out] @ m_dst + att[d_out:] @ m_src)
            logits.append(z if z >= 0.0 else _GAT_ATT_SLOPE * z)
            srcs.append(src)
            dsts.append(dst)
            msgs.append(m_src)
    out = np.zeros((n, d_out))
    if not srcs:
        return out
    dsts_arr = np.array(dsts)
    logits_arr = np.array(logits)
    msgs_arr = np.array(msgs)
    for i in np.unique(dsts_arr):
        mask = dsts_arr == i
        z = logits_arr[mask]
        z = np.exp(z - z.max())
        alpha = z / z.sum()
        out[i] = alpha @ msgs_arr[mask]
    return out


def mrs_gat(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: Activation = IDENTITY
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
    outs = []
    for h in range(heads):
        head_weights = params.rel_weights[h * rels : (h + 1) * rels]
        outs.append(_gat_head(X, mrg, head_weights, params.att_vectors[h]))
    return act(np.concatenate(outs, axis=1))


def mrs_gin(
    X: np.ndarray, mrg: MultiRelGraph, params: LayerParams, act: Activation = IDENTITY
) -> np.ndarray:
    """Sum of one GIN instantiation per edge relation.

    Each instantiation computes MLP_k((1 + eps_k) x_i + sum of raw
    in-neighbor features within relation k), with a two-layer relu MLP.
    """
    X = np.asarray(X, dtype=np.float64)
    total = None
    for k, (eps, w_hidden, w_out) in enumerate(params.gin):
        op = operator_for_graph(mrg.relation_graph(k), RAW)
        s = (1.0 + eps) * X + op.matrix @ X
        h = np.maximum(s @ w_hidden, 0.0) @ w_out
        total = h if total is None else total + h
    return act(total)


def mrs_gatedgcn(
    X: np.ndarray,
    edge_attrs: Optional[dict[tuple[int, int], np.ndarray]],
    mrg: MultiRelGraph,
    params: LayerParams,
    act: Activation = IDENTITY,
) -> np.ndarray:
    """Gated aggregation with per-relation message transforms.

    out_i = A x_i + sum_j(gate_ij * B_f x_j) / (sum_j gate_ij + eps), with
    gate_ij = sigmoid(D x_i + E x_j + C e_ij). Missing edge attributes
    default to zero vectors.
    """
    X = np.asarray(X, dtype=np.float64)
    n = mrg.base.n
    d_in = X.shape[1]
    d_out = params.gate_self.shape[1]
    out = X @ params.gate_self
    num = np.zeros((n, d_out))
    den = np.zeros((n, d_out))
    for k, rel_edges in enumerate(mrg.relations):
        b_k = params.gate_rel[k]
        for src, dst, _w in rel_edges:
            e = None if edge_attrs is None else edge_attrs.get((src, dst))
            e_vec = np.zeros(d_in) if e is None else np.asarray(e, dtype=np.float64)
            gate_pre = (
                X[dst] @ params.gate_recv
                + X[src] @ params.gate_send
                + e_vec @ params.gate_edge
            )
            gate = 1.0 / (1.0 + np.exp(-gate_pre))
            num[dst] += gate * (X[src] @ b_k)
            den[dst] += gate
    return act(out + num / (den + params.gate_eps))


def iterate(
    X0: np.ndarray,
    layer_factory: Callable[[int], Callable[[np.ndarray], np.ndarray]],
    num_layers: int,
    renormalize: bool = False,
) -> list[np.ndarray]:
    """Apply num_layers independently parameterized layers.

    layer_factory(k) must return the k-th layer function with freshly
    sampled parameters. Returns [X0, X1, ..., X_L] so index equals step.
    With renormalize=True each state is rescaled to unit Frobenius norm,
    which is exact up to scale for positively homogeneous layers and keeps
    deep trajectories inside floating-point range.
    """
    if num_layers < 1:
        raise ValueError("need at least one layer")
    states = [np.asarray(X0, dtype=np.float64)]
    for k in range(num_layers):
        nxt = layer_factory(k)(states[-1])
        if renormalize:
            norm = np.linalg.norm(nxt)
            if norm > 0:
                nxt = nxt / norm
        states.append(nxt)
    return states
