"""Desk-scale training loop comparing base convolutions against their
split counterparts on a synthetic direction-sensitive regression task.

The whole dataset is compiled into one block-diagonal operator set so a
full-batch epoch is a handful of matrix products. Optimization is plain
gradient descent with a fixed step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .convolution import ACTIVATIONS, glorot
from .ensembles import random_connected_graph
from .graph import Graph, in_degrees
from .ordering import ORDERINGS
from .split import VARIANTS, read_only_operator, variant_operators


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "gcn"
    layers: int = 4
    width: int = 32
    activation: str = "relu"
    ordering: str = "degree"
    residual: bool = False
    jk: str = "none"  # none | cat | max
    lr: float = 0.3
    epochs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.layers < 1 or self.width < 1:
            raise ValueError("layers and width must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering: {self.ordering!r}")
        if self.jk not in ("none", "cat", "max"):
            raise ValueError(f"unknown jumping-knowledge mode: {self.jk!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


@dataclass(frozen=True)
class TaskParams:
    count: int = 128
    n_min: int = 12
    n_max: int = 30
    buckets: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_min < 3 or self.n_max < self.n_min:
            raise ValueError("node-count range must start at 3 or more")
        if self.count < 1:
            raise ValueError("need at least one graph")
        if self.buckets < 1:
            raise ValueError(f"buckets must be at least 1, got {self.buckets}")


@dataclass(frozen=True)
class SyntheticTask:
    params: TaskParams
    graphs: tuple[Graph, ...]
    features: tuple[np.ndarray, ...]
    targets: np.ndarray


def degree_bucket_features(g: Graph, buckets: int) -> np.ndarray:
    """One-hot of (degree - 1) mod buckets, so the first feature column
    mixes low- and high-degree nodes instead of tracking the degree order."""
    deg = in_degrees(g)
    X = np.zeros((g.n, buckets))
    X[np.arange(g.n), (deg - 1) % buckets] = 1.0
    return X


def graph_target(g: Graph, X: np.ndarray) -> float:
    """Signed sum of the first feature: +1 for nodes above the median
    degree, -1 otherwise. Fitting it requires telling messages from
    higher-degree neighbors apart from lower-degree ones."""
    deg = in_degrees(g).astype(np.float64)
    signs = np.where(deg > np.median(deg), 1.0, -1.0)
    return float(signs @ X[:, 0])


def make_synthetic_task(params: TaskParams) -> SyntheticTask:
    rng = np.random.default_rng(params.seed)
    graphs, feats, targets = [], [], []
    for _ in range(params.count):
        n = int(rng.integers(params.n_min, params.n_max + 1))
        g = random_connected_graph(rng, n, extra_edges=n)
        X = degree_bucket_features(g, params.buckets)
        graphs.append(g)
        feats.append(X)
        targets.append(graph_target(g, X))
    return SyntheticTask(
        params=params,
        graphs=tuple(graphs),
        features=tuple(feats),
        targets=np.array(targets).reshape(-1, 1),
    )


@dataclass
class CompiledTask:
    """Dataset fused into block-diagonal relation operators."""

    rel_ops: list[sparse.csr_matrix]  # one entry per relation (1 or 3)
    rel_ops_t: list[sparse.csr_matrix]  # their transposes, for backward
    pool: sparse.csr_matrix  # num_graphs x total_nodes mean pooling
    X: np.ndarray  # stacked features
    targets: np.ndarray


def compile_task(task: SyntheticTask, config: ModelConfig) -> CompiledTask:
    per_graph = [
        variant_operators(g, config.variant, config.ordering, task.params.seed + idx, X)
        for idx, (g, X) in enumerate(zip(task.graphs, task.features))
    ]
    rel_ops = [
        read_only_operator(sparse.block_diag(ops, format="csr"))
        for ops in zip(*per_graph)
    ]
    sizes = np.array([g.n for g in task.graphs])
    rows = np.repeat(np.arange(len(sizes)), sizes)
    pool = sparse.csr_matrix(
        (np.repeat(1.0 / sizes, sizes), (rows, np.arange(len(rows)))),
        shape=(len(sizes), len(rows)),
    )
    return CompiledTask(
        rel_ops=rel_ops,
        rel_ops_t=[read_only_operator(op.T.tocsr()) for op in rel_ops],
        pool=read_only_operator(pool),
        X=np.vstack(task.features),
        targets=task.targets,
    )


@dataclass
class ModelParams:
    embed: ad.Tensor
    layer_rel: list[list[ad.Tensor]]  # per layer, per relation
    layer_self: list[Optional[ad.Tensor]]
    head: ad.Tensor
    head_bias: ad.Tensor

    def all_tensors(self) -> list[ad.Tensor]:
        out = [self.embed]
        for rel in self.layer_rel:
            out.extend(rel)
        out.extend(t for t in self.layer_self if t is not None)
        out.extend([self.head, self.head_bias])
        return out


def init_model(
    config: ModelConfig, feat_dim: int, tied: bool = False
) -> ModelParams:
    """Glorot-uniform initialization; with tied=True all per-relation
    transforms of a layer share one matrix, making a split model numerically
    identical to its base counterpart."""
    rng = np.random.default_rng(config.seed)
    spec = VARIANTS[config.variant]
    num_rel = spec.relations
    d = config.width
    embed = ad.parameter(glorot(rng, feat_dim, d))
    layer_rel, layer_self = [], []
    for _ in range(config.layers):
        if tied and num_rel > 1:
            w = glorot(rng, d, d)
            layer_rel.append([ad.parameter(w.copy()) for _ in range(num_rel)])
        else:
            layer_rel.append(
                [ad.parameter(glorot(rng, d, d)) for _ in range(num_rel)]
            )
        layer_self.append(ad.parameter(glorot(rng, d, d)) if spec.self_term else None)
    head_dim = d * config.layers if config.jk == "cat" else d
    head = ad.parameter(glorot(rng, head_dim, 1))
    head_bias = ad.parameter(np.zeros((1, 1)))
    return ModelParams(embed, layer_rel, layer_self, head, head_bias)


def forward(
    params: ModelParams, compiled: CompiledTask, config: ModelConfig
) -> ad.Tensor:
    """Prediction tensor for every graph; the returned tensor's graph holds
    all cached intermediates needed by backward()."""
    # By name (checked against ACTIVATIONS), so a wrapper bound over one of
    # the autodiff nodes is honored.
    act = getattr(ad, config.activation)
    h = ad.matmul(ad.Tensor(compiled.X), params.embed)
    states: list[ad.Tensor] = []
    for rel_ws, self_w in zip(params.layer_rel, params.layer_self):
        out = act(ad.relation_sum(h, compiled.rel_ops, compiled.rel_ops_t, rel_ws, self_w))
        h = ad.add(out, h) if config.residual else out
        states.append(h)
    if config.jk == "cat":
        readout = ad.concat_cols(states)
    elif config.jk == "max":
        readout = ad.elem_max(states)
    else:
        readout = h
    pooled = ad.spmm(compiled.pool, readout)
    return ad.add_rowvec(ad.matmul(pooled, params.head), params.head_bias)


@dataclass
class TrainResult:
    config: ModelConfig
    trace: list[float] = field(default_factory=list)
    diverged: bool = False

    @property
    def final_mae(self) -> float:
        return self.trace[-1]


@np.errstate(over="ignore", invalid="ignore")
def train(task: SyntheticTask, config: ModelConfig) -> TrainResult:
    """Full-batch gradient descent; the trace holds the initial loss plus
    one train MAE per epoch. A non-finite loss ends the run and marks it
    diverged, so the overflow that leads there raises no numpy warning."""
    compiled = compile_task(task, config)
    params = init_model(config, task.params.buckets)
    tensors = params.all_tensors()
    result = TrainResult(config=config)
    loss = ad.mae_loss(forward(params, compiled, config), compiled.targets)
    result.trace.append(float(loss.value))
    for _ in range(config.epochs):
        # loss was computed at the current parameters, so it is this epoch's
        # forward pass; its graph is backpropagated instead of a recomputation.
        for t in tensors:
            t.grad = None
        ad.backward(loss)
        for t in tensors:
            if t.grad is not None:
                t.value = t.value - config.lr * t.grad
        loss = ad.mae_loss(forward(params, compiled, config), compiled.targets)
        loss_val = float(loss.value)
        result.trace.append(loss_val)
        if not np.isfinite(loss_val):
            result.diverged = True
            break
    return result


def compare_base_vs_split(
    task: SyntheticTask, config: ModelConfig, seeds: tuple[int, ...] = (0, 1, 2)
) -> list[tuple[TrainResult, TrainResult]]:
    """Train the base variant and its split counterpart on the same task;
    one (base, split) pair of results per model seed, in seed order."""
    if not seeds:
        raise ValueError("need at least one model seed")
    base = config.variant.removeprefix("mrs_")
    return [
        (
            train(task, replace(config, variant=base, seed=seed)),
            train(task, replace(config, variant="mrs_" + base, seed=seed)),
        )
        for seed in seeds
    ]
