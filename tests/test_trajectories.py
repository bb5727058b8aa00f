"""Deep-stack rank-one-distance traces."""

import numpy as np
import pytest

from mrsplit import _pool, diagnostics, trajectories
from mrsplit.cli import build_parser
from mrsplit.convolution import glorot, relation_sum, relu
from mrsplit.diagnostics import dirichlet_energy, rod
from mrsplit.ensembles import molecule_like_graph
from mrsplit.split import VARIANTS
from mrsplit.trajectories import DEFAULT_VARIANTS, TraceConfig, rod_trace

from test_split import variant_operators


def small_config(**overrides):
    base = dict(
        variants=("gcn", "mrs_gcn"), num_graphs=4, layers=8, dim=6, seed=0
    )
    base.update(overrides)
    return TraceConfig(**base)


def test_shapes():
    traces = rod_trace(small_config())
    assert set(traces) == {"gcn", "mrs_gcn"}
    for variant in traces:
        assert traces[variant]["rod_mean"].shape == (8,)
        assert traces[variant]["dirichlet_mean"].shape == (8,)


def test_deterministic():
    t1 = rod_trace(small_config())
    t2 = rod_trace(small_config())
    for variant in t1:
        assert np.array_equal(t1[variant]["rod_mean"], t2[variant]["rod_mean"])


def test_gcn_trace_decays_below_split_trace():
    traces = rod_trace(small_config(layers=32))
    assert traces["gcn"]["rod_mean"][-1] < traces["mrs_gcn"]["rod_mean"][-1]


def test_random_ordering_supported():
    traces = rod_trace(small_config(variants=("mrs_sage",), ordering="random"))
    assert np.all(np.isfinite(traces["mrs_sage"]["rod_mean"]))


def test_unknown_ordering_rejected():
    # A trace draws no node features, so it cannot order by them.
    with pytest.raises(ValueError):
        rod_trace(small_config(variants=("mrs_gcn",), ordering="features"))


@pytest.mark.parametrize(
    "overrides, fields",
    [
        ({"n_min": 5, "n_max": 3}, "n_min=5, n_max=3"),
        ({"n_min": 0}, "n_min=0"),
        ({"n_min": -3, "n_max": 2}, "n_min=-3"),
        ({"variants": ()}, "variants"),
    ],
)
def test_bad_config_rejected(overrides, fields):
    with pytest.raises(ValueError, match=fields):
        small_config(**overrides)


def in_process(monkeypatch):
    """Run every node-count group in this process, where a counter sees its
    calls; a worker would count into its own copy of the list."""
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)


def test_repeated_variant_is_traced_once(monkeypatch):
    in_process(monkeypatch)
    run, traced = trajectories._run_units, []

    def counting(units, *args):
        traced.extend(gi for _, gi, _ in units)
        return run(units, *args)

    monkeypatch.setattr(trajectories, "_run_units", counting)
    once = rod_trace(small_config(variants=("gcn",)))
    assert sorted(traced) == [0, 1, 2, 3]
    traced.clear()
    repeated = rod_trace(small_config(variants=("gcn", "gcn", "gcn")))
    assert sorted(traced) == [0, 1, 2, 3]
    assert_traces_equal(repeated, once)


def test_each_graph_is_ordered_once_for_every_split_variant(monkeypatch):
    in_process(monkeypatch)
    order, ordered = trajectories.order_by, []

    def counting(name, g, *args):
        ordered.append(g)
        return order(name, g, *args)

    monkeypatch.setattr(trajectories, "order_by", counting)
    rod_trace(small_config(variants=("gcn", "sage")))
    assert ordered == []
    rod_trace(small_config(variants=DEFAULT_VARIANTS))
    assert len(ordered) == 4 and len(set(map(id, ordered))) == 4


def _oracle_trace_one(g, variant, config, rng):
    """One (graph, variant) trace, one variant at a time, with one glorot
    call per transform and rod / dirichlet_energy on single matrices; also
    says whether the state reached exact zero."""
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
            return rods, energies, True
        X = X / norm
        rods[it] = rod(X)
        energies[it] = dirichlet_energy(X, g)
    return rods, energies, False


def oracle_rod_trace(config):
    """rod_trace as a per-variant loop over graphs; also, per variant, the
    number of graphs whose state collapsed to zero."""
    master = np.random.default_rng(config.seed)
    graphs = [
        molecule_like_graph(master, config.n_min, config.n_max)
        for _ in range(config.num_graphs)
    ]
    out, collapsed = {}, {}
    for variant in config.variants:
        rod_sum = np.zeros(config.layers)
        energy_sum = np.zeros(config.layers)
        collapsed[variant] = 0
        for gi, g in enumerate(graphs):
            rng = np.random.default_rng([config.seed, gi, sum(variant.encode())])
            rods, energies, zero = _oracle_trace_one(g, variant, config, rng)
            rod_sum += rods
            energy_sum += energies
            collapsed[variant] += zero
        out[variant] = {
            "rod_mean": rod_sum / config.num_graphs,
            "dirichlet_mean": energy_sum / config.num_graphs,
        }
    return out, collapsed


def assert_traces_equal(got, expected):
    assert list(got) == list(expected)
    for variant in expected:
        for key in ("rod_mean", "dirichlet_mean"):
            assert np.array_equal(got[variant][key], expected[variant][key])


# d=1 on six graphs of one node count, so one block system: under every
# variant some states collapse to zero partway through and the rest stay live.
MIXED_BLOCK = {
    "variants": tuple(VARIANTS), "num_graphs": 6, "layers": 4, "dim": 1,
    "n_min": 8, "n_max": 8, "seed": 1,
}


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"variants": tuple(VARIANTS), "seed": 3},
        {"variants": ("gcn", "mrs_sage", "gcn", "mrs_sage"), "num_graphs": 3},
        {"variants": ("sage", "mrs_gcn"), "ordering": "random", "seed": 5},
        {"num_graphs": 1, "layers": 1, "dim": 1},
        # Every graph has one node count, so all pairs step as one block system.
        {"n_min": 12, "n_max": 12, "num_graphs": 5, "variants": tuple(VARIANTS)},
        # 17 graphs over 16 node counts: some node count repeats.
        {"num_graphs": 17, "variants": tuple(VARIANTS), "seed": 2},
        MIXED_BLOCK,
        {"variants": ("mrs_gcn", "sage", "mrs_gcn"), "ordering": "random", "seed": 7},
        # A subset in non-default order, and with a repeated name by random
        # order: a group's units follow the variants as named.
        {"variants": ("mrs_sage", "gcn"), "num_graphs": 9, "seed": 8},
        {"variants": ("mrs_sage", "gcn", "mrs_sage"), "ordering": "random", "num_graphs": 9},
        {"variants": tuple(VARIANTS), "ordering": "ppr", "num_graphs": 9, "seed": 6},
        {"variants": ("sage", "mrs_gcn"), "ordering": "ppr", "num_graphs": 5, "seed": 9},
    ],
)
def test_lockstep_trace_equals_per_variant_oracle(overrides):
    config = small_config(**overrides)
    expected, _ = oracle_rod_trace(config)
    assert_traces_equal(rod_trace(config), expected)


@pytest.mark.parametrize("seed", range(10))
def test_lockstep_trace_equals_oracle_when_states_collapse(seed):
    config = TraceConfig(num_graphs=2, layers=6, dim=1, seed=seed)
    expected, collapsed = oracle_rod_trace(config)
    assert sum(collapsed.values()) > 0
    assert_traces_equal(rod_trace(config), expected)


@pytest.mark.parametrize("rows, window", [(1, 2048), (40, 3), (150, 1)])
def test_chunk_span_and_window_boundaries(monkeypatch, rows, window):
    # Small row bounds split each variant's pairs into chunks of one or a
    # few pairs and measure a chunk's layers one or a few at a time, so some
    # states collapse partway through a span; a small draw window splits
    # the pairs before grouping.
    monkeypatch.setattr(diagnostics, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(diagnostics, "_DRAW_WINDOW", window)
    for overrides in ({"num_graphs": 9, "variants": tuple(VARIANTS), "seed": 4}, MIXED_BLOCK):
        config = small_config(**overrides)
        assert_traces_equal(rod_trace(config), oracle_rod_trace(config)[0])


def test_chunk_boundary_inside_a_variant_run(monkeypatch):
    # Five 8-node graphs under four variants are 20 units of one node count.
    # At 24 rows a chunk holds three units, so chunks split a variant's run
    # and join the end of one run to the start of the next.
    in_process(monkeypatch)
    monkeypatch.setattr(diagnostics, "_BLOCK_ROWS", 24)
    glue, runs = diagnostics._block_diagonals, []

    def counting(parts):
        runs.append(len(parts))
        return glue(parts)

    monkeypatch.setattr(diagnostics, "_block_diagonals", counting)
    config = small_config(variants=tuple(VARIANTS), num_graphs=5, n_min=8, n_max=8, seed=2)
    assert_traces_equal(rod_trace(config), oracle_rod_trace(config)[0])
    assert runs == [1, 2, 1, 2, 1, 1, 1]


def test_mixed_block_holds_collapsed_and_live_states():
    config = small_config(**MIXED_BLOCK)
    _, collapsed = oracle_rod_trace(config)
    assert all(0 < collapsed[v] < config.num_graphs for v in config.variants)


def test_collapsed_states_draw_no_more_transforms(monkeypatch):
    draw, drawn = glorot, []

    def counting(rng, d_in, d_out, *lead):
        drawn.append(int(np.prod(lead)))
        return draw(rng, d_in, d_out, *lead)

    in_process(monkeypatch)
    config = small_config(**MIXED_BLOCK)
    monkeypatch.setattr(trajectories, "glorot", counting)
    rod_trace(config)
    stacked = sum(drawn)
    assert stacked > 0
    drawn.clear()
    monkeypatch.setattr(f"{__name__}.glorot", counting)
    oracle_rod_trace(config)
    assert stacked == sum(drawn)


def test_one_explicit_default_variant_list():
    # The library and CLI defaults are one tuple, not the registry's keys.
    assert DEFAULT_VARIANTS == ("gcn", "mrs_gcn", "sage", "mrs_sage")
    assert TraceConfig().variants is DEFAULT_VARIANTS
    args = build_parser().parse_args(["rod-trace"])
    assert tuple(args.variants.split(",")) == DEFAULT_VARIANTS
