"""Deep message-passing trajectories with per-iteration rank-one distance
and Dirichlet energy, averaged over a seeded random graph ensemble.

States are renormalized to unit Frobenius norm between iterations; relu is
positively homogeneous, so this changes only scale and keeps both reported
metrics exact. A state that collapses to exact zero stays zero and reports
a rank-one distance of 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolution import glorot, relation_sum, relu
from .diagnostics import dirichlet_energy, rod
from .ensembles import molecule_like_graph
from .graph import Graph
from .split import VARIANTS, variant_operators


@dataclass(frozen=True)
class TraceConfig:
    variants: tuple[str, ...] = tuple(VARIANTS)
    num_graphs: int = 50
    layers: int = 128
    dim: int = 16
    ordering: str = "degree"
    n_min: int = 15
    n_max: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_graphs, self.layers, self.dim) < 1:
            raise ValueError("num_graphs, layers and dim must be at least 1")
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ValueError(f"unknown variant: {variant!r}")
        if self.ordering not in ("degree", "random"):
            raise ValueError(f"unsupported trace ordering: {self.ordering!r}")


def _trace_one(
    g: Graph,
    variant: str,
    config: TraceConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-iteration (rod, dirichlet) for one graph, relu after every layer."""
    mats = variant_operators(g, variant, config.ordering, config.seed)
    uses_self = VARIANTS[variant].self_term
    d = config.dim
    X = rng.uniform(-1.0, 1.0, (g.n, d))
    rods = np.zeros(config.layers)
    energies = np.zeros(config.layers)
    for it in range(config.layers):
        weights = [glorot(rng, d, d) for _ in mats]
        self_weight = glorot(rng, d, d) if uses_self else None
        X = relu(relation_sum(X, mats, weights, self_weight))
        norm = np.linalg.norm(X)
        if norm == 0.0:
            rods[it:] = 0.0
            energies[it:] = 0.0
            break
        X = X / norm
        rods[it] = rod(X)
        energies[it] = dirichlet_energy(X, g)
    return rods, energies


def rod_trace(config: TraceConfig) -> dict[str, dict[str, np.ndarray]]:
    """Mean rank-one distance and Dirichlet energy per iteration and variant.

    Every variant sees the same graphs and the same initial features; layer
    transforms are drawn independently per (graph, variant, layer).
    """
    master = np.random.default_rng(config.seed)
    graphs = [
        molecule_like_graph(master, config.n_min, config.n_max)
        for _ in range(config.num_graphs)
    ]
    out: dict[str, dict[str, np.ndarray]] = {}
    for variant in config.variants:
        rod_sum = np.zeros(config.layers)
        energy_sum = np.zeros(config.layers)
        for gi, g in enumerate(graphs):
            rng = np.random.default_rng([config.seed, gi, sum(variant.encode())])
            rods, energies = _trace_one(g, variant, config, rng)
            rod_sum += rods
            energy_sum += energies
        out[variant] = {
            "rod_mean": rod_sum / config.num_graphs,
            "dirichlet_mean": energy_sum / config.num_graphs,
        }
    return out
