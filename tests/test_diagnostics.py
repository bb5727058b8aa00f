"""Rank estimation, structural independence, ROD, and theorem suites."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from mrsplit import _pool, diagnostics, trajectories
from mrsplit.convolution import identity, leaky_relu, relation_sum, relu
from mrsplit.diagnostics import (
    ROW_ZERO_TOL,
    VERIFY_DIM,
    VerificationReport,
    dirichlet_energy,
    exact_rank_small,
    in_degree_matrix,
    numeric_rank,
    rod,
    structurally_independent,
    verify_dag_pair_rank,
    verify_dar_independent_pairs,
    verify_ergodic_rank_one,
    verify_independence_on_constructions,
    verify_rank_theorem_random_splits,
    verify_zero_convergence,
    run_full_suite,
)
from mrsplit.ensembles import molecule_like_graph, random_connected_dag
from mrsplit.graph import disjoint_union, graph_from_pairs, longest_path_length, reverse
from mrsplit.ordering import order_degree, order_random
from mrsplit.split import (
    RAW,
    ROW_MEAN,
    SYM_GCN,
    dar_pair_from_dag,
    normalize,
    operator_for_graph,
    split_edges,
    whole_graph,
)

from test_split import assert_same_csr, bidirected_triangle, undirected_path, variant_operators


def rel_ops(n, edges_per_relation):
    return [
        operator_for_graph(graph_from_pairs(n, edges), RAW)
        for edges in edges_per_relation
    ]


def star_graphs(counts):
    """Relation pair where node i receives counts[i][k] unit edges in
    relation k from private source nodes (mirrors the figure instances)."""
    nxt = len(counts)
    rels = [[], []]
    for node, per_rel in enumerate(counts):
        for k, c in enumerate(per_rel):
            for _ in range(c):
                rels[k].append((nxt, node))
                nxt += 1
    return [graph_from_pairs(nxt, edges) for edges in rels]


def star_ops(counts):
    """The raw operators of star_graphs(counts)."""
    return [operator_for_graph(g, RAW) for g in star_graphs(counts)]


class TestInDegreeMatrix:
    def test_weighted_rows(self):
        # node 0: four unit arcs in rel-1 and weights {3, -1} in rel-2 -> (4, 2)
        ops = rel_ops(
            7,
            [
                [(1, 0), (2, 0), (3, 0), (4, 0)],
                [(5, 0, 3.0), (6, 0, -1.0)],
            ],
        )
        E = in_degree_matrix(ops)
        assert tuple(E[0]) == (4.0, 2.0)

    def test_unit_count_rows(self):
        ops = star_ops([(3, 2)])
        assert tuple(in_degree_matrix(ops)[0]) == (3.0, 2.0)

    def test_row_mean_rows_sum_to_one(self):
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        E = in_degree_matrix([operator_for_graph(g, ROW_MEAN)])
        assert E[2][0] == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            in_degree_matrix(rel_ops(2, [[(0, 1)]]) + rel_ops(3, [[(0, 1)]]))

    def test_no_operator(self):
        with pytest.raises(ValueError, match="at least one operator"):
            in_degree_matrix([])

    @settings(max_examples=60)
    @given(st.data())
    def test_bit_equal_to_scipy_row_sums_on_any_csr(self, data):
        # Entries in any order, with repeated (row, column) pairs, rows of 8
        # and more entries and values of very different size, so a different
        # summation order shows.
        n = data.draw(st.integers(0, 6))
        nnz = data.draw(st.integers(0, 24)) if n else 0
        index = st.integers(0, max(n - 1, 0))
        value = st.sampled_from([0.1, 0.2, -0.3, 1e16, -1e16, 3.0, -0.0])
        rows = np.sort(np.array(data.draw(st.lists(index, min_size=nnz, max_size=nnz)), dtype=int))
        cols = data.draw(st.lists(index, min_size=nnz, max_size=nnz))
        vals = data.draw(st.lists(value, min_size=nnz, max_size=nnz))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        op = sparse.csr_matrix((vals, cols, indptr), shape=(n, n))
        ops = [op, operator_for_graph(graph_from_pairs(n, []), RAW)]
        E = in_degree_matrix(ops)
        for k, mat in enumerate(ops):
            assert E[:, k].tobytes() == np.asarray(mat.sum(axis=1)).ravel().tobytes()

    def test_returns_array_of_operator_row_sums(self):
        ops = star_ops([(3, 2), (2, 1), (0, 4)])
        E = in_degree_matrix(ops)
        assert type(E) is np.ndarray
        expected = np.stack([np.asarray(op.sum(axis=1)).ravel() for op in ops], axis=1)
        assert E.shape == (ops[0].shape[0], 2)
        assert np.array_equal(E, expected)

    def test_csr_arrays_give_what_csr_matrices_give(self):
        # A csr_array's row sums are a vector, a csr_matrix's a column.
        ops = star_ops([(3, 2), (2, 1), (0, 4)])
        E = in_degree_matrix([sparse.csr_array(op) for op in ops])
        assert E.shape == (ops[0].shape[0], 2)
        assert E.tobytes() == in_degree_matrix(ops).tobytes()


class TestStructuralIndependence:
    def test_dependent_pair(self):
        assert not structurally_independent((4.0, 2.0), (2.0, 1.0))

    def test_independent_pair(self):
        assert structurally_independent((3.0, 2.0), (2.0, 1.0))

    def test_zero_vector_always_dependent(self):
        assert not structurally_independent((0.0, 0.0), (5.0, 7.0))

    def test_symmetric(self):
        a, b = (3.0, 2.0), (2.0, 1.0)
        assert structurally_independent(a, b) == structurally_independent(b, a)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            structurally_independent((1.0, 2.0), (1.0,))


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_outer_product(self):
        assert numeric_rank(np.outer([1.0, 2.0, 3.0], [4.0, 5.0])) == 1

    def test_rank_two_example(self):
        assert numeric_rank(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 5.0]])) == 2

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((4, 4))) == 0

    def test_empty_matrix(self):
        assert numeric_rank(np.zeros((0, 3))) == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            numeric_rank(np.array([[np.nan]]))

    def test_tolerance_is_relative_to_largest_singular_value(self):
        assert numeric_rank(1e-12 * np.eye(3)) == 3
        assert numeric_rank(np.diag([1.0, 1e-10])) == 1
        assert numeric_rank(np.diag([1.0, 1e-10]), rel_tol=1e-11) == 2
        assert numeric_rank(np.zeros((2, 2)), rel_tol=-1.0) == 0


class TestExactRankSmall:
    def test_zero(self):
        assert exact_rank_small([[0, 0], [0, 0]]) == 0

    def test_identity(self):
        assert exact_rank_small(np.eye(5)) == 5

    def test_fraction_exactness(self):
        assert exact_rank_small([[1, 2], [2, 4], [3, 5]]) == 2

    def test_dims_capped(self):
        with pytest.raises(ValueError):
            exact_rank_small(np.zeros((33, 2)))

    @settings(max_examples=50)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    def test_agrees_with_numeric_rank(self, nr, nc, seed):
        M = np.random.default_rng(seed).integers(-4, 5, size=(nr, nc))
        assert exact_rank_small(M) == numeric_rank(M.astype(float))


class TestRod:
    def test_rank_one_matrix(self):
        X = np.outer([1.0, -2.0, 0.5], [3.0, 1.0])
        assert rod(X) <= 1e-10

    def test_identity_two(self):
        assert rod(np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance(self):
        X = np.random.default_rng(0).uniform(-1, 1, (5, 3))
        assert rod(3.7 * X) == pytest.approx(rod(X), abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            rod(np.zeros((2, 2)))

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_zero_iff_rank_one(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (4, 3))
        if numeric_rank(X) == 1:
            assert rod(X) < 1e-8
        elif rod(X) < 1e-8:
            assert numeric_rank(X) == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rod(np.array([[np.nan, 1.0]]))

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            rod(np.array([1.0, 2.0]))

    def test_zero_matrix_in_stack_rejected(self):
        stack = np.stack([np.eye(2), np.zeros((2, 2)), np.ones((2, 2))])
        with pytest.raises(ValueError, match="zero matrix"):
            rod(stack)

    def test_matrix_gives_float_and_stack_gives_array(self):
        X = np.random.default_rng(1).uniform(-1, 1, (5, 3))
        assert type(rod(X)) is float
        out = rod(np.stack([X, 2.0 * X]).reshape(1, 2, 5, 3))
        assert isinstance(out, np.ndarray) and out.shape == (1, 2)


def oracle_rod(X: np.ndarray) -> float:
    """rod as it was computed one matrix at a time through np.linalg.norm."""
    nuc = np.linalg.norm(X, ord="nuc")
    u = X[:, int(np.argmax(np.linalg.norm(X, axis=0)))]
    v = X[int(np.argmax(np.linalg.norm(X, axis=1))), :]
    ref = np.outer(u, v)
    if float(np.sum(X * ref)) < 0.0:
        ref = -ref
    ref_nuc = np.linalg.norm(u) * np.linalg.norm(v)
    return float(np.linalg.norm(X / nuc - ref / ref_nuc, ord="nuc"))


def oracle_dirichlet_energy(X: np.ndarray, g) -> float:
    """dirichlet_energy as it was computed one matrix at a time."""
    if not g.num_edges:
        return 0.0
    diff = X[g.src] - X[g.dst]
    return float(np.add.accumulate(np.vecdot(diff, diff))[-1])


def _signed_copies(line: np.ndarray, count: int, rng) -> np.ndarray:
    """count copies of line with random sign flips: equal squared entries in
    equal order, so their Euclidean norms tie exactly."""
    return line * rng.choice([-1.0, 1.0], size=(count, line.size))


def _matrix(kind: str, rng, n: int, d: int) -> np.ndarray:
    if kind == "relu":
        return np.fmax(rng.uniform(-1, 1, (n, d)), 0.0)
    a, b = rng.uniform(-1, 1, n), rng.uniform(-1, 1, d)
    if kind == "near_rank_one":
        return np.outer(a, b) + 1e-9 * rng.standard_normal((n, d))
    if kind == "flipped_rank_one":
        # Every entry is negative, so u v^T is positive and the reference
        # must be flipped to reach distance 0.
        return np.outer(-np.abs(a), np.abs(b))
    if kind == "tied_columns":
        return _signed_copies(rng.uniform(-1, 1, n), d, rng).T.copy()
    return _signed_copies(rng.uniform(-1, 1, d), n, rng)  # tied_rows


@st.composite
def matrix_stacks(draw):
    k, n, d = draw(st.integers(1, 5)), draw(st.integers(1, 30)), draw(st.integers(1, 16))
    kinds = draw(st.lists(
        st.sampled_from(["relu", "near_rank_one", "flipped_rank_one", "tied_columns",
                         "tied_rows"]),
        min_size=k, max_size=k,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([_matrix(kind, rng, n, d) for kind in kinds]), rng


class TestStackedAgainstOracle:
    """The stacked forms equal the per-matrix forms bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(matrix_stacks())
    def test_rod(self, drawn):
        stack, _ = drawn
        if not np.all(np.any(stack != 0.0, axis=(-2, -1))):
            with pytest.raises(ValueError, match="zero matrix"):
                rod(stack)
            return
        expected = [oracle_rod(X) for X in stack]
        assert rod(stack).tolist() == expected
        assert [rod(X) for X in stack] == expected

    @settings(max_examples=200, deadline=None)
    @given(matrix_stacks(), st.floats(0.0, 1.0))
    def test_dirichlet_energy(self, drawn, density):
        stack, rng = drawn
        n = stack.shape[1]
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
        g = graph_from_pairs(n, arcs)
        expected = [oracle_dirichlet_energy(X, g) for X in stack]
        assert dirichlet_energy(stack, g).tolist() == expected
        assert [dirichlet_energy(X, g) for X in stack] == expected


class TestDirichletEnergy:
    def test_constant_rows(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        assert dirichlet_energy(np.ones((3, 2)), g) == 0.0

    def test_path_hand_value(self):
        g = graph_from_pairs(
            3, [(0, 1), (1, 0), (1, 2), (2, 1)], undirected=True
        )
        assert dirichlet_energy(np.array([[0.0], [1.0], [0.0]]), g) == 4.0

    def test_edgeless(self):
        assert dirichlet_energy(np.ones((4, 2)), graph_from_pairs(4, [])) == 0.0

    @pytest.mark.parametrize("d", [1, 4, 16, 32])
    def test_equals_per_arc_running_sum_bitwise(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(40):
            g = molecule_like_graph(rng, 5, 30)
            X = rng.standard_normal((g.n, d)) * 10.0 ** rng.uniform(-3, 3)
            total = 0.0
            for src, dst in zip(g.src.tolist(), g.dst.tolist()):
                diff = X[src] - X[dst]
                total += float(diff @ diff)
            assert dirichlet_energy(X, g) == total

    def test_row_count_validated(self):
        with pytest.raises(ValueError):
            dirichlet_energy(np.ones((2, 2)), graph_from_pairs(3, []))


class TestVerifyRankTheorem:
    """The rank lower bound on fixed operators, checked one trial at a time
    by sequential_rank_theorem."""

    def test_ergodic_triangle_rank_one_bound(self):
        tri = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
        ops = [
            operator_for_graph(graph_from_pairs(3, tri), ROW_MEAN),
            operator_for_graph(graph_from_pairs(3, [(a, b) for b, a in tri]), ROW_MEAN),
        ]
        assert numeric_rank(in_degree_matrix(ops)) == 1
        report = sequential_rank_theorem(ops, 50, 0)
        assert report.passed

    def test_independent_star_pair_rank_two(self):
        ops = star_ops([(3, 2), (2, 1)])
        assert numeric_rank(in_degree_matrix(ops)) == 2
        report = sequential_rank_theorem(ops, 50, 0)
        assert report.passed
        assert report.min_margin >= 0

    def test_report_shape(self):
        ops = star_ops([(1, 1)])
        d = sequential_rank_theorem(ops, 5, 3).to_dict()
        assert d["theorem"] == "rank_lower_bound"
        assert d["trials"] == 5 and d["seed"] == 3

    def test_report_dict_holds_every_field_and_the_verdict(self):
        report = VerificationReport(
            "t", trials=4, failures=1, min_margin=-1.0, seed=2, notes=["trial 0: x"]
        )
        assert report.to_dict() == {
            "theorem": "t", "trials": 4, "failures": 1, "min_margin": -1.0,
            "seed": 2, "notes": ["trial 0: x"], "passed": False,
        }
        assert report.to_dict()["notes"] is not report.notes


class TestVerifyIndependenceTheorem:
    """Independent output rows for a fixed node pair, checked one trial at a
    time by sequential_independence_theorem."""

    def test_independent_pair_always_rank_two(self):
        report = sequential_independence_theorem(star_ops([(3, 2), (2, 1)]), (0, 1), 100, 0)
        assert report.passed and report.failures == 0

    def test_dependent_pair_not_asserted(self):
        report = sequential_independence_theorem(star_ops([(4, 2), (2, 1)]), (0, 1), 20, 0)
        assert report.passed
        assert any("dependent" in note for note in report.notes)

    def test_single_mean_relation_all_pairs_dependent(self):
        tri = [(0, 1), (1, 2), (2, 0)]
        ops = [operator_for_graph(graph_from_pairs(3, tri), ROW_MEAN)]
        E = in_degree_matrix(ops)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not structurally_independent(E[i], E[j])


def independent_pairs_by_loop(E):
    """Pair scan oracle: one structurally_independent call per pair i < j."""
    return sum(
        structurally_independent(E[i], E[j])
        for i in range(len(E))
        for j in range(i + 1, len(E))
    )


class TestIndependentPairScan:
    def test_matches_pair_loop_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, cols = int(rng.integers(0, 12)), int(rng.integers(1, 4))
            E = rng.integers(-2, 3, (n, cols)).astype(np.float64)
            E[rng.random(n) < 0.2] = 0.0  # zero rows
            E[rng.random(n) < 0.2] *= 1e-9  # tiny rows
            if n > 1:
                E[1] = 3.0 * E[0]  # a dependent pair
            assert diagnostics._independent_pair_count(E) == independent_pairs_by_loop(E)

    @pytest.mark.parametrize("seed", range(30))
    def test_suite_trial_count_matches_pair_loop(self, seed):
        # Trial 0 of a one-trial run draws from the generator [seed, 0].
        rng = np.random.default_rng([seed, 0])
        g = molecule_like_graph(rng, 8, 24)
        mrg = split_edges(g, order_random(g.n, int(rng.integers(0, 2**63))))
        expected = independent_pairs_by_loop(in_degree_matrix(normalize(mrg, RAW)[:2]))
        report = verify_dar_independent_pairs(trials=1, seed=seed)
        assert report.min_margin == expected - 1


class TestSuites:
    def test_zero_convergence_small_budget(self):
        assert verify_zero_convergence(trials=10, seed=0).passed

    def test_ergodic_instances(self):
        assert verify_ergodic_rank_one(instances=8).passed

    def test_dar_independent_pairs(self):
        assert verify_dar_independent_pairs(trials=10, seed=0).passed

    def test_dag_pair_zero_state_reported_not_raised(self, monkeypatch):
        # A zero pair of a chunk's block system is a zero pair for each of
        # the chunk's trials.
        def zero_pair(chunk):
            n = sum(u.n for u in chunk)
            zero = sparse.csr_matrix((n, n))
            return [zero, zero]

        monkeypatch.setattr(diagnostics, "_block_system", zero_pair)
        report = verify_dag_pair_rank(trials=3, seed=0, depth=4)
        assert report.failures == 2 * 3
        assert not report.passed and len(report.notes) == 6

    def test_full_suite_rejects_negative_trials(self):
        with pytest.raises(ValueError):
            run_full_suite(seed=0, trials=-1)

    def test_full_suite_structure(self):
        reports = run_full_suite(seed=0, trials=10)
        assert len(reports) == 6
        names = {r.theorem for r in reports}
        assert "rank_lower_bound_random_splits" in names
        assert all(r.passed for r in reports)


def pair_or_dag_alone(g):
    """dar_pair_from_dag(g), with the reverse operator's rows zeroed in each
    weakly connected component whose arc senders, counted from the
    component's first node, sum to an odd number."""
    fwd, bwd = dar_pair_from_dag(g)
    count, labels = connected_components(fwd, connection="weak")
    first = np.full(count, g.n)
    np.minimum.at(first, labels, np.arange(g.n))
    senders = np.bincount(labels[g.src], g.src - first[labels[g.src]], minlength=count)
    kept = (senders.astype(np.int64) % 2 == 0)[labels]
    bwd = (sparse.diags(kept.astype(np.float64)) @ bwd).tocsr()
    bwd.eliminate_zeros()
    bwd.sort_indices()
    return fwd, bwd


def reference_independent_pair_instance(rng):
    """_independent_pair_instance built from lists of (sender, receiver)
    tuples, one new sender per arc."""
    while True:
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, e = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if a * e - b * c != 0:
            break
    arcs = ([], [])
    nxt = 2
    for node, counts in enumerate([(a, b), (c, e)]):
        for rel, k in enumerate(counts):
            arcs[rel].extend((sender, node) for sender in range(nxt, nxt + k))
            nxt += k
    return [graph_from_pairs(nxt, pairs) for pairs in arcs]


class TestIndependentPairInstance:
    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(1, 12))
    def test_equals_the_tuple_list_build_and_leaves_the_same_generator_state(self, seed, draws):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            got = diagnostics._independent_pair_instance(rng)
            assert got == reference_independent_pair_instance(ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_every_count_pattern(self):
        # The counts range over 1-4 and a * e != b * c rules out four equal
        # counts, so the node count ranges over 7-17.
        sizes = set()
        for seed in range(300):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = diagnostics._independent_pair_instance(rng)
            assert got == reference_independent_pair_instance(ref_rng)
            sizes.add(got[0].n)
        assert sizes == set(range(7, 18))


# The suites as they ran before their trials stepped as block systems: one
# trial at a time, each on its own operators, the oracle for the grouped
# runner. Each trial builds its instance with the library's own helpers, so
# only the stepping, the draws and the folding are under test.


def sequential_suite(theorem, trials, seed, trial):
    failures, min_margin, notes = 0, np.inf, []
    for t in range(trials):
        for margin, note in trial(np.random.default_rng([seed, t]), t):
            min_margin = min(min_margin, margin)
            if note is not None:
                failures += 1
                notes.append(note)
    return VerificationReport(
        theorem, trials, failures,
        float(min_margin) if np.isfinite(min_margin) else 0.0, seed, notes[:10],
    )


def sequential_rank_checks(rng, t, ops, rows, target):
    X = np.outer(rng.uniform(-1, 1, ops[0].shape[0]), rng.uniform(-1, 1, VERIFY_DIM))
    weights = [rng.uniform(-1, 1, (VERIFY_DIM, VERIFY_DIM)) for _ in ops]
    pre = relation_sum(X, ops, weights)
    checks = []
    for sigma in (identity, leaky_relu):
        rank = numeric_rank(sigma(pre)[rows])
        note = f"trial {t} ({sigma.__name__}): rank {rank} < {target}"
        checks.append((rank - target, note if rank < target else None))
    return checks


def sequential_rank_theorem(ops, trials, seed):
    rank_e = numeric_rank(in_degree_matrix(ops))
    return sequential_suite(
        "rank_lower_bound", trials, seed,
        lambda rng, t: sequential_rank_checks(rng, t, ops, slice(None), rank_e),
    )


def sequential_independence_theorem(ops, pair, trials, seed):
    E = in_degree_matrix(ops)
    i, j = pair
    independent = structurally_independent(E[i], E[j])
    report = sequential_suite(
        "independent_pair_rows", trials, seed,
        lambda rng, t: sequential_rank_checks(rng, t, ops, [i, j], 2) if independent else [],
    )
    if not independent:
        report.notes.append("pair is structurally dependent; no assertion made")
    return report


def sequential_zero_convergence(trials, seed):
    def trial(rng, t):
        g = random_connected_dag(rng, int(rng.integers(5, 21)))
        mats = [operator_for_graph(g, ROW_MEAN)]
        X = rng.uniform(-1, 1, (g.n, VERIFY_DIM))
        for _ in range(longest_path_length(g) + 1):
            X = relu(relation_sum(X, mats, [rng.uniform(-1, 1, (VERIFY_DIM, VERIFY_DIM))]))
        peak = float(np.abs(X).max())
        return [(-peak, f"trial {t}: residual magnitude {peak}" if peak != 0.0 else None)]

    return sequential_suite("dag_zero_convergence", trials, seed, trial)


def sequential_dag_pair_rank(trials, seed, depth=16, pair=dar_pair_from_dag):
    """The DAG-pair suite one trial at a time, each trial stepping on
    pair(dag) of its own DAG."""

    def trial(rng, t):
        g = random_connected_dag(rng, int(rng.integers(6, 25)))
        mats = pair(g)
        checks = []
        for sigma in (identity, leaky_relu):
            X = rng.uniform(-1, 1, (g.n, VERIFY_DIM))
            for _ in range(depth):
                weights = [rng.uniform(-1, 1, (VERIFY_DIM, VERIFY_DIM)) for _ in mats]
                X = sigma(relation_sum(X, mats, weights))
                norm = np.linalg.norm(X)
                if norm == 0.0:
                    break
                X = X / norm
            row_min = float(np.linalg.norm(X, axis=1).min())
            rank = numeric_rank(X)
            failed = row_min <= ROW_ZERO_TOL or rank < 2
            note = f"trial {t} ({sigma.__name__}): rank {rank}, min row {row_min:.2e}"
            checks.append((min(rank - 2, row_min - ROW_ZERO_TOL), note if failed else None))
        return checks

    return sequential_suite("dag_pair_rank_preserved", trials, seed, trial)


def sequential_ergodic_rank_one(instances, seed):
    def trial(rng, idx):
        ops = [operator_for_graph(g, ROW_MEAN) for g in diagnostics._ergodic_instance(idx)]
        rank_e = numeric_rank(in_degree_matrix(ops))
        return [(1 - rank_e, f"instance {idx}: rank(E)={rank_e}" if rank_e != 1 else None)]

    return sequential_suite("ergodic_rank_one", instances, seed, trial)


def sequential_dar_independent_pairs(trials, seed):
    def trial(rng, t):
        g = molecule_like_graph(rng, 8, 24)
        mrg = split_edges(g, order_random(g.n, int(rng.integers(0, 2**63))))
        found = independent_pairs_by_loop(in_degree_matrix(normalize(mrg, RAW)[:2]))
        note = f"trial {t}: no structurally independent pair"
        return [(found - 1, note if found == 0 else None)]

    return sequential_suite("dar_pair_independent_exists", trials, seed, trial)


def sequential_rank_theorem_random_splits(trials, seed):
    def trial(rng, t):
        g = molecule_like_graph(rng, 8, 30)
        ops = variant_operators(g, "mrs_gcn", "random", int(rng.integers(0, 2**63)))
        rank_e = numeric_rank(in_degree_matrix(ops))
        return sequential_rank_checks(rng, t, ops, slice(None), rank_e)

    return sequential_suite("rank_lower_bound_random_splits", trials, seed, trial)


def sequential_independence_on_constructions(trials, seed):
    def trial(rng, t):
        ops = [operator_for_graph(g, RAW) for g in diagnostics._independent_pair_instance(rng)]
        return sequential_rank_checks(rng, t, ops, [0, 1], 2)

    return sequential_suite("constructed_independent_pairs", trials, seed, trial)


# name: (grouped suite, its sequential oracle, trials)
SUITES = {
    "random_splits": (
        verify_rank_theorem_random_splits, sequential_rank_theorem_random_splits, 200
    ),
    "constructions": (
        verify_independence_on_constructions, sequential_independence_on_constructions, 200
    ),
    "zero_convergence": (verify_zero_convergence, sequential_zero_convergence, 60),
    "dag_pair": (verify_dag_pair_rank, sequential_dag_pair_rank, 60),
    "ergodic": (verify_ergodic_rank_one, sequential_ergodic_rank_one, 20),
    "dar_pairs": (verify_dar_independent_pairs, sequential_dar_independent_pairs, 60),
}


def fixed_source_cases():
    """(name, sources, mode, pair) cases of fixed relation sources, each a
    list of (graph, scores) pairs: an independent star pair, a dependent
    one, an ergodic triangle and a 40-node split whose rank target exceeds 2."""
    tri = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
    g = molecule_like_graph(np.random.default_rng(5), 40, 40)
    triangles = [graph_from_pairs(3, tri), graph_from_pairs(3, [(a, b) for b, a in tri])]
    return [
        ("star_independent", [(h, None) for h in star_graphs([(3, 2), (2, 1)])], RAW, (0, 1)),
        ("star_dependent", [(h, None) for h in star_graphs([(4, 2), (2, 1)])], RAW, (0, 1)),
        ("ergodic_triangle", [(h, None) for h in triangles], ROW_MEAN, (1, 2)),
        ("split_40", [(g, order_random(g.n, 3))], SYM_GCN, (0, 39)),
    ]


def source_operators(sources, mode):
    """Each source's operators in mode, in source order: its graph whole
    when its scores are None, else split under them."""
    return [
        op
        for g, scores in sources
        for op in normalize(whole_graph(g) if scores is None else split_edges(g, scores), mode)
    ]


def fixed_source_suite(theorem, sources, mode, rows, target, trials, seed):
    """A suite whose every trial is the same fixed sources, stepped by the
    grouped runner: the rank of the given output rows of one split
    convolution against target, or against each trial's rank(E) when target
    is None."""
    return diagnostics._run_suite(
        theorem, trials, seed, mode, lambda rng, t: sources,
        diagnostics._rank_checks(rows, target),
    )


def assert_fixed_sources_give_the_oracle_reports(sources, mode, pair, trials, seed, ops=None):
    """The rank lower bound and, for a structurally independent pair, its
    independent output rows: the grouped runner on the fixed sources
    reports what one trial at a time on ops reports, by default the
    sources' own operators."""
    ops = source_operators(sources, mode) if ops is None else ops
    assert (
        fixed_source_suite("rank_lower_bound", sources, mode, slice(None), None, trials, seed)
        .to_dict() == sequential_rank_theorem(ops, trials, seed).to_dict()
    )
    E = in_degree_matrix(ops)
    if structurally_independent(E[pair[0]], E[pair[1]]):
        assert (
            fixed_source_suite("independent_pair_rows", sources, mode, list(pair), 2, trials, seed)
            .to_dict() == sequential_independence_theorem(ops, pair, trials, seed).to_dict()
        )


class TestGroupedRunnerEqualsSequentialOracle:
    """Every suite, stepped in node-count groups, reports exactly what it
    reported when each trial ran alone."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_suite(self, suite, seed):
        grouped, sequential, trials = SUITES[suite]
        assert grouped(trials, seed=seed).to_dict() == sequential(trials, seed).to_dict()

    @pytest.mark.parametrize("seed", [0, 4, 9])
    @pytest.mark.parametrize("case", range(4))
    def test_theorem_functions_on_fixed_operators(self, case, seed):
        # Every trial steps on the same operators, built from fixed sources,
        # so a chunk stacks copies of one instance.
        _, sources, mode, pair = fixed_source_cases()[case]
        assert_fixed_sources_give_the_oracle_reports(sources, mode, pair, 40, seed)

    @pytest.mark.parametrize("rows, window", [(1, 2048), (25, 7), (64, 1), (4096, 13)])
    def test_chunk_and_window_boundaries(self, monkeypatch, rows, window):
        # With a row bound below some node counts, a group splits into
        # chunks of one or a few trials, and a trial larger than the bound
        # steps alone; a small draw window splits the trials before grouping.
        monkeypatch.setattr(diagnostics, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(diagnostics, "_DRAW_WINDOW", window)
        for suite in ("random_splits", "dag_pair", "zero_convergence", "dar_pairs"):
            grouped, sequential, _ = SUITES[suite]
            assert grouped(30, seed=2).to_dict() == sequential(30, 2).to_dict(), suite
        _, sources, mode, pair = fixed_source_cases()[3]
        assert_fixed_sources_give_the_oracle_reports(sources, mode, pair, 7, 1)

    def test_collapsed_states_match_the_oracle(self, monkeypatch):
        # A DAG whose arc senders sum to an odd number keeps only its forward
        # relation, under which its state reaches exact zero within the depth
        # and stops drawing, while other trials of its node count keep their
        # pair and go on. The suite steps on the pair of a chunk's union of
        # DAGs and the oracle on one DAG's: each drawn DAG is weakly
        # connected, so each of its blocks is one component of the union,
        # and its senders are counted from the block's first node.
        def union_pair(chunk):
            return list(pair_or_dag_alone(disjoint_union([u.sources[0][0] for u in chunk])))

        monkeypatch.setattr(diagnostics, "_block_system", union_pair)
        grouped = verify_dag_pair_rank(trials=40, seed=5, depth=30)
        oracle = sequential_dag_pair_rank(40, 5, depth=30, pair=pair_or_dag_alone)
        assert grouped.to_dict() == oracle.to_dict()
        assert 0 < grouped.failures < 80
        assert "rank 0, min row 0.00e+00" in grouped.notes[0]


def unsorted_arc_graphs():
    """Two weighted 3-node graphs that list their arcs out of scipy's
    canonical CSR order: node 0 of the first receives from 2, 0 and 1 in
    that order, and the second lists receivers 2, 0, 1, 1, node 1 from 2
    before 0."""
    return [
        graph_from_pairs(3, [(2, 0, 1.0), (0, 0, 2.0), (1, 0, 3.0), (0, 2, -1.5)]),
        graph_from_pairs(3, [(1, 2, 0.5), (2, 0, 1.5), (2, 1, -2.0), (0, 1, 0.25)]),
    ]


def listed_order_operator(g):
    """g's raw operator with each row's entries in g's arc order: a CSR
    whose rows are not in canonical order when g lists its arcs unsorted."""
    by_receiver = np.argsort(g.dst, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(g.dst, minlength=g.n))))
    return sparse.csr_matrix((g.w[by_receiver], g.src[by_receiver], indptr), shape=(g.n, g.n))


class TestOperatorSuites:
    """A suite on fixed relation sources steps every chunk of trials on the
    block-diagonal operators of the caller's sources, stored in canonical
    order whatever order the graphs list their arcs in, and reports what
    one trial at a time on those operators, sorted or not, reports."""

    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "chunked"])
    def test_non_canonical_operators_give_the_oracle_report(self, monkeypatch, alone):
        # With the row bound at the node count, every trial is a chunk of one.
        graphs = unsorted_arc_graphs()
        ops = [listed_order_operator(g) for g in graphs]
        assert not any(op.has_canonical_format for op in ops)
        if alone:
            monkeypatch.setattr(diagnostics, "_BLOCK_ROWS", 3)
        sources = [(g, None) for g in graphs]
        for seed in (0, 5):
            assert_fixed_sources_give_the_oracle_reports(sources, RAW, (0, 1), 30, seed, ops)

    def test_canonical_operator_runs_and_gives_the_oracle_report(self):
        g = unsorted_arc_graphs()[0]
        op = listed_order_operator(g)
        op.sum_duplicates()
        assert op.has_canonical_format
        (built,) = source_operators([(g, None)], RAW)
        assert built.has_canonical_format
        assert built.indices.tolist() == op.indices.tolist()
        assert built.data.tobytes() == op.data.tobytes()
        assert (
            fixed_source_suite("rank_lower_bound", [(g, None)], RAW, slice(None), None, 6, 2)
            .to_dict() == sequential_rank_theorem([op], 6, 2).to_dict()
        )

    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "chunked"])
    def test_every_chunk_steps_on_the_caller_s_operators(self, monkeypatch, alone):
        _, sources, mode, pair = fixed_source_cases()[3]
        ops = source_operators(sources, mode)
        if alone:
            monkeypatch.setattr(diagnostics, "_BLOCK_ROWS", ops[0].shape[0])
        stepped = []

        def spy(X, blocks, *weights):
            stepped.append((len(X), blocks))
            return relation_sum(X, blocks, *weights)

        monkeypatch.setattr(diagnostics, "relation_sum", spy)
        assert_fixed_sources_give_the_oracle_reports(sources, mode, pair, 7, 1)
        # Alone, 14 chunks of one trial; chunked, one chunk of 7 per suite.
        assert [k for k, _ in stepped] == ([1] * 14 if alone else [7, 7])
        for k, blocks in stepped:
            for got, op in zip(blocks, ops, strict=True):
                assert_same_csr(got, sparse.block_diag([op] * k, format="csr"))


class TestBlockDiagonals:
    """Two or more parts glue into scipy's block-diagonal operators, a part
    with fewer operators than the most padded with empty blocks, and a lone
    part's operators are its own."""

    def test_empty_blocks_and_the_all_empty_padding_slot(self):
        g = undirected_path()
        ops = normalize(split_edges(g, order_degree(g)), RAW)
        # The path's ends tie, but no arc joins them: E3 holds no arc, so
        # the third slot of the first chunk is empty in every part.
        assert ops[2].nnz == 0
        empty = (sparse.csr_matrix((g.n, g.n)),) * 3
        no_arcs = (operator_for_graph(graph_from_pairs(2, []), RAW),) * 3
        whole = normalize(whole_graph(g), RAW)
        for parts in ([ops, empty, ops], [empty, empty], [no_arcs, ops, no_arcs], [ops, whole]):
            got = diagnostics._block_diagonals(parts)
            assert len(got) == 3
            padded = [[*p, *[sparse.csr_matrix(p[0].shape)] * (3 - len(p))] for p in parts]
            for op, blocks in zip(got, zip(*padded)):
                assert_same_csr(op, sparse.block_diag(blocks, format="csr"))
                assert op.indices.dtype == op.indptr.dtype == np.int32

    def test_result_is_read_only(self):
        ops = normalize(whole_graph(bidirected_triangle()), SYM_GCN)
        for got in diagnostics._block_diagonals([ops, ops]):
            for arr in (got.data, got.indices, got.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0


def drawn_dag(seed, t):
    """The DAG that trial t of verify_dag_pair_rank draws at seed."""
    rng = np.random.default_rng([seed, t])
    return random_connected_dag(rng, int(rng.integers(6, 25)))


def dag_pair_chunk(dags):
    """A chunk of DAG-pair units, one per DAG: the DAG and its reverse,
    mean-normalized."""
    rng = np.random.default_rng(0)
    return [
        diagnostics._Unit(t, rng, ROW_MEAN, [(g, None), (reverse(g), None)])
        for t, g in enumerate(dags)
    ]


class TestDagPairDraws:
    """The DAG-pair suite steps each DAG and its reverse with no check of its
    own, so every DAG it draws must pass dar_pair_from_dag's acyclicity and
    coverage checks, and a chunk's pair must be dar_pair_from_dag's pair of
    the union of its DAGs."""

    @pytest.mark.parametrize("seed", range(3))
    def test_benchmark_draws_pass_the_pair_checks(self, seed):
        # verify --trials 1000 runs the suite at 400 trials.
        for t in range(400):
            dar_pair_from_dag(drawn_dag(seed, t))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), t=st.integers(0, 2**20))
    def test_any_draw_passes_the_pair_checks(self, seed, t):
        dar_pair_from_dag(drawn_dag(seed, t))

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_chunk_pair_is_the_union_pair(self, count):
        dags = [drawn_dag(1, t) for t in range(count)]
        got = diagnostics._block_system(dag_pair_chunk(dags))
        for op, want in zip(got, dar_pair_from_dag(disjoint_union(dags)), strict=True):
            assert_same_csr(op, want)


def union_calls_per_chunk(monkeypatch, run):
    """run() with every union_operators call counted: the count each
    _block_system call made, in chunk order, and the count in all."""
    union, build, calls, per_chunk = diagnostics.union_operators, diagnostics._block_system, [], []

    def counting_union(*args):
        calls.append(args)
        return union(*args)

    def counting_build(chunk):
        before = len(calls)
        blocks = build(chunk)
        per_chunk.append(len(calls) - before)
        return blocks

    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(diagnostics, "union_operators", counting_union)
    monkeypatch.setattr(diagnostics, "_block_system", counting_build)
    run()
    return per_chunk, len(calls)


class TestOneBuild:
    """Every chunk of every suite and of a trace is built by _block_system,
    one union_operators call per source of each run of units that share a
    mode and whole or split sources."""

    def test_dag_pair_chunk(self, monkeypatch):
        per_chunk, total = union_calls_per_chunk(monkeypatch, lambda: verify_dag_pair_rank(1))
        assert (per_chunk, total) == ([2], 2)

    def test_ergodic_chunk(self, monkeypatch):
        per_chunk, total = union_calls_per_chunk(monkeypatch, lambda: verify_ergodic_rank_one(1))
        assert (per_chunk, total) == ([2], 2)

    def test_trace_chunk_of_the_default_variants(self, monkeypatch):
        config = trajectories.TraceConfig(num_graphs=3, layers=2, dim=4, n_min=8, n_max=8)
        assert len(config.variants) == 4
        per_chunk, total = union_calls_per_chunk(monkeypatch, lambda: trajectories.rod_trace(config))
        assert (per_chunk, total) == ([4], 4)
