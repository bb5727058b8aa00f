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


def rod_trace(config: TraceConfig) -> dict[str, dict[str, np.ndarray]]:
    """Mean rank-one distance and Dirichlet energy per iteration and variant.

    Every variant sees the same graphs. Each (graph, variant) pair draws its
    initial features and its layer transforms from its own generator, seeded
    by (seed, graph index, variant name). The variants of one graph step in
    lockstep, relu after every layer; the states still nonzero after a layer
    are measured as one stack, and a state that reaches exact zero leaves the
    stack and reports 0 for every remaining layer.
    """
    master = np.random.default_rng(config.seed)
    d = config.dim
    rod_sum = np.zeros((len(config.variants), config.layers))
    energy_sum = np.zeros_like(rod_sum)
    for gi in range(config.num_graphs):
        g = molecule_like_graph(master, config.n_min, config.n_max)
        rngs = [
            np.random.default_rng([config.seed, gi, sum(variant.encode())])
            for variant in config.variants
        ]
        ops = [
            variant_operators(g, variant, config.ordering, config.seed)
            for variant in config.variants
        ]
        uses_self = [VARIANTS[variant].self_term for variant in config.variants]
        states = [rng.uniform(-1.0, 1.0, (g.n, d)) for rng in rngs]
        live = list(range(len(config.variants)))
        for it in range(config.layers):
            still_live = []
            for r in live:
                m = len(ops[r])
                weights = glorot(rngs[r], d, d, m + uses_self[r])
                X = relu(relation_sum(
                    states[r], ops[r], weights[:m], weights[m] if uses_self[r] else None
                ))
                norm = np.linalg.norm(X)
                if norm != 0.0:
                    states[r] = X / norm
                    still_live.append(r)
            live = still_live
            if not live:
                break
            # Sums gain graphs in graph order; a collapsed state adds nothing,
            # which is adding its 0.0 exactly.
            stack = np.stack([states[r] for r in live])
            rod_sum[live, it] += rod(stack)
            energy_sum[live, it] += dirichlet_energy(stack, g)
    return {
        variant: {
            "rod_mean": rod_sum[r] / config.num_graphs,
            "dirichlet_mean": energy_sum[r] / config.num_graphs,
        }
        for r, variant in enumerate(config.variants)
    }
