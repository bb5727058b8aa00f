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
from scipy import sparse

from .convolution import glorot, relation_sum, relu
from .diagnostics import dirichlet_energy, rod
from .ensembles import molecule_like_graph
from .graph import Graph
from .split import VARIANTS, read_only_operator, variant_operators


# The variants a trace runs by default; a name added to VARIANTS does not join.
DEFAULT_VARIANTS = ("gcn", "mrs_gcn", "sage", "mrs_sage")

# The orderings a trace accepts.
TRACE_ORDERINGS = ("degree", "random")


@dataclass(frozen=True)
class TraceConfig:
    variants: tuple[str, ...] = DEFAULT_VARIANTS
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
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(
                f"need 1 <= n_min <= n_max, got n_min={self.n_min}, n_max={self.n_max}"
            )
        if not self.variants:
            raise ValueError("variants must name at least one variant")
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ValueError(f"unknown variant: {variant!r}")
        if self.ordering not in TRACE_ORDERINGS:
            raise ValueError(f"unsupported trace ordering: {self.ordering!r}")


def rod_trace(config: TraceConfig) -> dict[str, dict[str, np.ndarray]]:
    """Mean rank-one distance and Dirichlet energy per iteration and variant.

    Every variant sees the same graphs, and a variant named more than once
    is traced once. Each (graph, variant) pair draws its initial features
    and its layer transforms from its own generator, seeded by (seed, graph
    index, variant name), so the pairs can step in any grouping: the pairs
    of all graphs that share a node count step as one block system, relu
    after every layer, and a state that reaches exact zero reports 0 for
    every remaining layer. Means add the graphs in graph order.
    """
    master = np.random.default_rng(config.seed)
    graphs = [
        molecule_like_graph(master, config.n_min, config.n_max)
        for _ in range(config.num_graphs)
    ]
    names = tuple(dict.fromkeys(config.variants))
    rods = np.zeros((len(graphs), len(names), config.layers))
    energies = np.zeros_like(rods)
    for n in sorted({g.n for g in graphs}):
        members = [gi for gi, g in enumerate(graphs) if g.n == n]
        rods[members], energies[members] = _trace_same_size(
            config, names, members, [graphs[gi] for gi in members]
        )
    # A running sum over graphs; a collapsed state adds its 0.0 exactly.
    rod_sum = np.add.accumulate(rods, axis=0)[-1]
    energy_sum = np.add.accumulate(energies, axis=0)[-1]
    return {
        name: {
            "rod_mean": rod_sum[v] / config.num_graphs,
            "dirichlet_mean": energy_sum[v] / config.num_graphs,
        }
        for v, name in enumerate(names)
    }


def _trace_same_size(
    config: TraceConfig,
    names: tuple[str, ...],
    indices: list[int],
    graphs: list[Graph],
) -> tuple[np.ndarray, np.ndarray]:
    """(rod, energy) arrays of shape (graphs, variants, layers) for graphs of
    one node count, every (graph, variant) pair stepped in one block system.

    Pair p = b * len(names) + v is graph b under variant v. Each relation
    slot is one block-diagonal operator over all pairs. A variant with fewer
    relations has empty blocks in the slots it lacks, and one without a self
    term has a zero self transform. Those terms add only signed zeros, which
    relu maps to +0.0, so every pair steps exactly as it would alone.
    """
    n, d, layers = graphs[0].n, config.dim, config.layers
    specs = [VARIANTS[name] for name in names]
    slots = max(spec.relations for spec in specs)
    has_self = any(spec.self_term for spec in specs)
    # The transform slots a variant's one glorot draw fills, in draw order:
    # its relations, then its self term in the slot after every relation.
    fills = [
        [*range(spec.relations), *([slots] if spec.self_term else [])]
        for spec in specs
    ]
    rngs = [
        np.random.default_rng([config.seed, gi, sum(name.encode())])
        for gi in indices
        for name in names
    ]
    states = np.stack([rng.uniform(-1.0, 1.0, (n, d)) for rng in rngs])
    empty = sparse.csr_matrix((n, n))
    per_pair = [
        variant_operators(g, name, config.ordering, config.seed)
        + (empty,) * (slots - spec.relations)
        for g in graphs
        for name, spec in zip(names, specs)
    ]
    blocks = [
        read_only_operator(sparse.block_diag(ops, format="csr"))
        for ops in zip(*per_pair)
    ]
    weights = np.zeros((slots + has_self, len(rngs), d, d))
    live = np.ones(len(rngs), dtype=bool)
    rods = np.zeros((len(rngs), layers))
    energies = np.zeros_like(rods)
    for it in range(layers):
        # A collapsed pair draws no more; its zero rows stay zero under the
        # transforms it drew last.
        for p in np.flatnonzero(live):
            fill = fills[p % len(names)]
            weights[fill, p] = glorot(rngs[p], d, d, len(fill))
        X = relu(relation_sum(
            states, blocks, weights[:slots], weights[slots] if has_self else None
        ))
        flat = X.reshape(len(rngs), -1)
        norm = np.sqrt(np.vecdot(flat, flat))
        live = norm != 0.0
        # Dividing a collapsed state by inf leaves it exact zero rows.
        states = X / np.where(live, norm, np.inf)[:, None, None]
        if not live.any():
            break
        rods[live, it] = rod(states[live])
        for b, g in enumerate(graphs):
            pairs = slice(b * len(names), (b + 1) * len(names))
            if live[pairs].any():
                energies[pairs, it] = dirichlet_energy(states[pairs], g)
    shape = (len(graphs), len(names), layers)
    return rods.reshape(shape), energies.reshape(shape)
