"""Deep message-passing trajectories with per-iteration rank-one distance
and Dirichlet energy, averaged over a seeded random graph ensemble.

States are renormalized to unit Frobenius norm between iterations; relu is
positively homogeneous, so this changes only scale and keeps both reported
metrics exact. A state that collapses to exact zero stays zero and reports
a rank-one distance of 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import diagnostics
from ._pool import _fork_map
from .convolution import glorot, relation_sum, relu
from .diagnostics import (
    _Unit, _groups, _run_units, _states, _unit_states, dirichlet_energy, rod,
)
from .ensembles import molecule_like_graph
from .graph import Graph
from .ordering import TRACE_ORDERINGS, order_by
from .split import DEFAULT_VARIANTS, VARIANTS


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
    index, variant name), so the pairs can step in any grouping and in any
    process: the graphs are grouped by node count, the groups are split
    over the usable CPUs, and each group's pairs of every variant step
    together in block systems, relu after every layer. A state that
    reaches exact zero reports 0 for every remaining layer. Means add the
    graphs in graph order.
    """
    master = np.random.default_rng(config.seed)
    graphs = [
        molecule_like_graph(master, config.n_min, config.n_max)
        for _ in range(config.num_graphs)
    ]
    names = tuple(dict.fromkeys(config.variants))
    groups = _groups(range(len(graphs)), lambda gi: graphs[gi].n)
    # The costliest groups start first, so the last to finish is a cheap one.
    groups.sort(key=lambda members: -len(members) * graphs[members[0]].n)
    traced = _fork_map(
        partial(_trace_group, config, names),
        [[(gi, graphs[gi]) for gi in members] for members in groups],
    )
    # (variant, graph, metric, layer), the groups' graphs back in graph order
    order = np.argsort([gi for members in groups for gi in members])
    metrics = np.concatenate(traced, axis=1)[:, order]
    # A running sum over graphs; a collapsed state adds its 0.0 exactly.
    sums = np.add.accumulate(metrics, axis=1)[:, -1]
    return {
        name: {
            "rod_mean": sums[v, 0] / config.num_graphs,
            "dirichlet_mean": sums[v, 1] / config.num_graphs,
        }
        for v, name in enumerate(names)
    }


def _trace_group(
    config: TraceConfig, names: tuple[str, ...], group: list[tuple[int, Graph]]
) -> np.ndarray:
    """(variant, graph, metric, layer) array of the ROD and the Dirichlet
    energy of each (graph, variant) pair of a group of (graph index, graph)
    pairs of one node count.

    The runner steps the pairs of every variant together, so a chunk holds a
    run of pairs of each of one or more variants. Slot k of its block system is
    the block diagonal of each run's relation-k operator, an empty block for
    a one-relation variant, and its self slot is zero for a variant without
    a self term. An empty block adds exact +0.0 rows and a zero transform
    adds +0.0 or -0.0, which can change only the sign of a zero, and relu
    maps -0.0 to +0.0; so each state is bit-identical to its pair's own.
    """
    d, layers = config.dim, config.layers
    units = [(name, gi, g) for name in names for gi, g in group]
    # Each graph is ordered once, for every split variant.
    ordered = {}
    if any(VARIANTS[name].split for name in names):
        ordered = {gi: order_by(config.ordering, g, config.seed) for gi, g in group}

    def draw(unit: tuple[str, int, Graph]):
        name, gi, g = unit
        rng = np.random.default_rng([config.seed, gi, sum(name.encode())])
        scores = ordered[gi] if VARIANTS[name].split else None
        return rng, VARIANTS[name].mode, [(g, scores)]

    def step(chunk: list[_Unit], blocks: list) -> np.ndarray:
        specs = [VARIANTS[units[u.t][0]] for u in chunk]
        slots = len(blocks) + any(spec.self_term for spec in specs)
        weights = np.zeros((slots, len(chunk), d, d))
        self_weight = weights[-1] if slots > len(blocks) else None
        # Per pair, its rows of the (slot, pair) transforms flattened, in the
        # order of its one draw: its relations', then its self transform's.
        rows = [
            [k * len(chunk) + b for k in range(spec.relations)]
            + [(slots - 1) * len(chunk) + b] * spec.self_term
            for b, spec in enumerate(specs)
        ]
        flat = weights.reshape(-1, d, d)
        states = _states(chunk, d)
        live = np.ones(len(chunk), dtype=bool)
        out = np.zeros((len(chunk), 2, layers))
        # The Dirichlet energies of each graph's pairs are measured together.
        by_graph = _groups(range(len(chunk)), lambda b: units[chunk[b].t][1])
        # The states of several layers, up to _BLOCK_ROWS rows, are measured
        # by one rod call and one dirichlet_energy call per graph.
        span = max(1, diagnostics._BLOCK_ROWS // (len(chunk) * chunk[0].n))
        for start in range(0, layers, span):
            kept = []
            for _ in range(start, min(start + span, layers)):
                if not live.any():
                    break
                # A collapsed pair draws no more; its zero rows stay zero
                # under the transforms it drew last.
                alive = np.flatnonzero(live)
                flat[np.concatenate([rows[b] for b in alive])] = np.concatenate(
                    [glorot(chunk[b].rng, d, d, len(rows[b])) for b in alive]
                )
                X = relu(relation_sum(states, blocks, weights[: len(blocks)], self_weight))
                states, live = _unit_states(X)
                kept.append((states, live))
            if not kept:
                break
            # (pairs, layers, n, d) and (pairs, layers)
            S, L = (np.stack(each, axis=1) for each in zip(*kept))
            measured = out[:, :, start : start + len(kept)]
            measured[:, 0][L] = rod(S[L])
            for members in by_graph:
                measured[members, 1] = dirichlet_energy(S[members], chunk[members[0]].sources[0][0])
        return out

    traced = np.array(list(_run_units(units, draw, step)))
    return traced.reshape(len(names), len(group), 2, layers)
