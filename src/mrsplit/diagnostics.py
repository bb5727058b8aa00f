"""Structural-independence analysis, rank estimation, rank-one distance,
Dirichlet energy, and executable verification suites for the linear-algebra
guarantees of split message passing.

Verification routines report failures instead of raising; a failed trial is
data, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .convolution import IDENTITY, LEAKY_RELU, relation_sum
from .ensembles import molecule_like_graph, random_connected_dag
from .graph import Graph, longest_path_length
from .ordering import order_random
from .split import (
    RAW,
    ROW_MEAN,
    RelationOperator,
    dar_pair_from_dag,
    normalize,
    operator_for_graph,
    split_edges,
    variant_operators,
)

DEFAULT_RANK_TOL = 1e-8
ROW_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class WeightedInDegreeMatrix:
    """n x l matrix whose row i stacks node i's weighted in-degrees."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.matrix[i]


def in_degree_matrix(ops: Sequence[RelationOperator]) -> WeightedInDegreeMatrix:
    """Exact per-relation row sums of the given operators."""
    sizes = {op.n for op in ops}
    if len(sizes) > 1:
        raise ValueError("operators must share the same node count")
    cols = [op.row_sums() for op in ops]
    return WeightedInDegreeMatrix(np.stack(cols, axis=1))


def numeric_rank(M: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above rel_tol * sigma_max (0 for the zero matrix)."""
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return 0
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix must have finite entries")
    svals = np.linalg.svd(M, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * svals[0]))


def exact_rank_small(M) -> int:
    """Exact rank of a small rational matrix via elimination over Fractions.

    Accepts ints, Fractions, and floats (floats are dyadic rationals, so the
    conversion is exact). Intended as an oracle for numeric_rank on
    integer-weighted instances; dims are capped at 32.
    """
    # Fraction keeps numpy scalars as-is, and int64 arithmetic wraps; unbox
    # them into arbitrary-precision Python numbers before elimination.
    rows = [
        [Fraction(x.item() if hasattr(x, "item") else x) for x in row]
        for row in M
    ]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nr > 32 or nc > 32:
        raise ValueError("exact_rank_small is limited to 32x32 matrices")
    rank = 0
    col = 0
    while rank < nr and col < nc:
        pivot = next((r for r in range(rank, nr) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, nr):
            factor = rows[r][col] / pv
            if factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def structurally_independent(d_i, d_j, rel_tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff the two weighted in-degree vectors are linearly independent.

    A zero vector is dependent on everything. Symmetric in its arguments.
    """
    a = np.asarray(d_i, dtype=np.float64)
    b = np.asarray(d_j, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("expected two equal-length vectors")
    return numeric_rank(np.stack([a, b]), rel_tol) == 2


def rows_nonzero(X: np.ndarray, tol: float = ROW_ZERO_TOL) -> bool:
    """Row-wise nonzero predicate: every row has Euclidean norm above tol."""
    return bool(np.all(np.linalg.norm(np.asarray(X), axis=1) > tol))


def rod(X: np.ndarray) -> float:
    """Nuclear-norm distance of X (normalized) to its dominant rank-one part.

    The rank-one reference is u v^T with u the column and v the row of X of
    largest Euclidean norm (ties broken by lowest index). Zero iff X is
    effectively rank one; invariant under positive scaling of X.
    """
    X = np.asarray(X, dtype=np.float64)
    nuc = np.linalg.norm(X, ord="nuc")
    if nuc == 0.0:
        raise ValueError("rank-one distance is undefined for the zero matrix")
    u = X[:, int(np.argmax(np.linalg.norm(X, axis=0)))]
    v = X[int(np.argmax(np.linalg.norm(X, axis=1))), :]
    ref = np.outer(u, v)
    # u and v carry an arbitrary relative sign; orient the reference toward X
    # so exact rank-one inputs measure 0 rather than 2.
    if float(np.sum(X * ref)) < 0.0:
        ref = -ref
    ref_nuc = np.linalg.norm(u) * np.linalg.norm(v)
    return float(np.linalg.norm(X / nuc - ref / ref_nuc, ord="nuc"))


def dirichlet_energy(X: np.ndarray, g: Graph) -> float:
    """Sum over arcs (i, j) of ||x_i - x_j||^2."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.n:
        raise ValueError("feature rows must match graph node count")
    total = 0.0
    for src, dst, _w in g.edges:
        diff = X[src] - X[dst]
        total += float(diff @ diff)
    return total


@dataclass
class VerificationReport:
    """Outcome of one property suite: counts plus the worst observed margin."""

    theorem: str
    trials: int
    failures: int
    min_margin: float
    seed: int
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "failures": self.failures,
            "min_margin": self.min_margin,
            "seed": self.seed,
            "passed": self.passed,
            "notes": self.notes,
        }


_SIGMAS = (IDENTITY, LEAKY_RELU)


def _run_suite(
    theorem: str,
    trials: int,
    seed: int,
    trial: Callable[[np.random.Generator, int], list[tuple[float, Optional[str]]]],
) -> VerificationReport:
    """Run trial(rng, t) for t < trials, each with its own seeded generator.

    A trial returns one (margin, note) pair per check; the check failed when
    note is not None. min_margin is the smallest margin seen, 0.0 when no
    check ran. The first ten failure notes are kept.
    """
    failures = 0
    min_margin = np.inf
    notes: list[str] = []
    for t in range(trials):
        for margin, note in trial(np.random.default_rng([seed, t]), t):
            min_margin = min(min_margin, margin)
            if note is not None:
                failures += 1
                notes.append(note)
    return VerificationReport(
        theorem=theorem,
        trials=trials,
        failures=failures,
        min_margin=float(min_margin) if np.isfinite(min_margin) else 0.0,
        seed=seed,
        notes=notes[:10],
    )


def _rank_checks(
    rng: np.random.Generator,
    t: int,
    ops: Sequence[RelationOperator],
    rows,
    target: int,
    d: int,
) -> list[tuple[float, Optional[str]]]:
    """Per activation: rank of the selected output rows of one split
    convolution of a random rank-one input, minus the target rank."""
    X = np.outer(rng.uniform(-1, 1, ops[0].n), rng.uniform(-1, 1, d))
    weights = [rng.uniform(-1, 1, (d, d)) for _ in ops]
    pre = relation_sum(X, [op.matrix for op in ops], weights)
    checks = []
    for sigma in _SIGMAS:
        rank = numeric_rank(sigma(pre)[rows])
        note = f"trial {t} ({sigma.kind}): rank {rank} < {target}"
        checks.append((rank - target, note if rank < target else None))
    return checks


def verify_rank_theorem(
    ops: Sequence[RelationOperator],
    trials: int = 500,
    seed: int = 0,
    d: int = 8,
) -> VerificationReport:
    """Output rank of one split convolution is at least rank of the
    weighted in-degree matrix, for rank-one inputs and generic transforms."""
    rank_e = numeric_rank(in_degree_matrix(ops).matrix)
    return _run_suite(
        "rank_lower_bound",
        trials,
        seed,
        lambda rng, t: _rank_checks(rng, t, ops, slice(None), rank_e, d),
    )


def verify_independence_theorem(
    ops: Sequence[RelationOperator],
    pair: tuple[int, int],
    trials: int = 500,
    seed: int = 0,
    d: int = 8,
) -> VerificationReport:
    """Structurally independent node pairs yield linearly independent output
    rows in every trial. Nothing is asserted for dependent pairs."""
    i, j = pair
    n = ops[0].n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair {pair} out of range for n={n}")
    E = in_degree_matrix(ops)
    independent = structurally_independent(E.row(i), E.row(j))
    report = _run_suite(
        "independent_pair_rows",
        trials,
        seed,
        lambda rng, t: _rank_checks(rng, t, ops, [i, j], 2, d) if independent else [],
    )
    if not independent:
        report.notes.append("pair is structurally dependent; no assertion made")
    return report


def verify_zero_convergence(
    trials: int = 100, seed: int = 0, d: int = 8
) -> VerificationReport:
    """Mean aggregation on a DAG without leaf self-loops drives every state
    to exactly zero after longest-path-length + 1 steps."""

    def trial(rng: np.random.Generator, t: int):
        g = random_connected_dag(rng, int(rng.integers(5, 21)))
        mats = [operator_for_graph(g, ROW_MEAN).matrix]
        depth = longest_path_length(g) + 1
        X = rng.uniform(-1, 1, (g.n, d))
        for _ in range(depth):
            X = np.maximum(relation_sum(X, mats, [rng.uniform(-1, 1, (d, d))]), 0.0)
        peak = float(np.abs(X).max())
        note = f"trial {t}: residual magnitude {peak}"
        return [(-peak, note if peak != 0.0 else None)]

    return _run_suite("dag_zero_convergence", trials, seed, trial)


def verify_dag_pair_rank(
    trials: int = 200, seed: int = 0, depth: int = 16, d: int = 8
) -> VerificationReport:
    """A DAG plus its reverse with distinct transforms keeps every row
    nonzero and rank above one at depth `depth`.

    States are rescaled to unit Frobenius norm between steps; the layer is
    positively homogeneous, so this only changes scale, never rank or
    row-wise nonzeroness. A state that reaches exact zero stops there and
    fails both conditions.
    """

    def trial(rng: np.random.Generator, t: int):
        g = random_connected_dag(rng, int(rng.integers(6, 25)))
        mats = [op.matrix for op in dar_pair_from_dag(g)]
        checks = []
        for sigma in _SIGMAS:
            X = rng.uniform(-1, 1, (g.n, d))
            for _ in range(depth):
                weights = [rng.uniform(-1, 1, (d, d)) for _ in mats]
                X = sigma(relation_sum(X, mats, weights))
                norm = np.linalg.norm(X)
                if norm == 0.0:
                    break
                X = X / norm
            row_min = float(np.linalg.norm(X, axis=1).min())
            rank = numeric_rank(X)
            failed = row_min <= ROW_ZERO_TOL or rank < 2
            note = f"trial {t} ({sigma.kind}): rank {rank}, min row {row_min:.2e}"
            checks.append((min(rank - 2, row_min - ROW_ZERO_TOL), note if failed else None))
        return checks

    return _run_suite("dag_pair_rank_preserved", trials, seed, trial)


def _ergodic_instance(idx: int) -> list[RelationOperator]:
    """Two cycle relations over n nodes, each mean-normalized row-wise."""
    n = 4 + idx
    step = 2 + (idx % max(1, n - 3))
    rel1 = Graph(
        n=n, edges=tuple(((i, (i + 1) % n, 1.0) for i in range(n)))
    )
    rel2 = Graph(
        n=n, edges=tuple(((i, (i + step) % n, 1.0) for i in range(n)))
    )
    return [operator_for_graph(rel1, ROW_MEAN), operator_for_graph(rel2, ROW_MEAN)]


def verify_ergodic_rank_one(instances: int = 20, seed: int = 0) -> VerificationReport:
    """Mean-normalized ergodic relation sets give a rank-one in-degree matrix,
    so no node pair is structurally independent."""

    def trial(rng: np.random.Generator, idx: int):
        rank_e = numeric_rank(in_degree_matrix(_ergodic_instance(idx)).matrix)
        note = f"instance {idx}: rank(E)={rank_e}"
        return [(1 - rank_e, note if rank_e != 1 else None)]

    return _run_suite("ergodic_rank_one", instances, seed, trial)


def verify_dar_independent_pairs(
    trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Two nonempty acyclic relations with different root sets always
    contain at least one structurally independent node pair (checked by
    exhaustive pair scan)."""

    def trial(rng: np.random.Generator, t: int):
        g = molecule_like_graph(rng, 8, 24)
        scores = order_random(g.n, int(rng.integers(0, 2**63)))
        mrg = split_edges(g, scores)
        E = in_degree_matrix(normalize(mrg, RAW)[:2])
        found = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if structurally_independent(E.row(i), E.row(j)):
                    found += 1
        note = f"trial {t}: no structurally independent pair"
        return [(found - 1, note if found == 0 else None)]

    return _run_suite("dar_pair_independent_exists", trials, seed, trial)


def verify_rank_theorem_random_splits(
    trials: int = 500, seed: int = 0, d: int = 8
) -> VerificationReport:
    """Rank lower bound over freshly sampled split graphs per trial."""

    def trial(rng: np.random.Generator, t: int):
        g = molecule_like_graph(rng, 8, 30)
        ops = variant_operators(g, "mrs_gcn", "random", int(rng.integers(0, 2**63)))
        rank_e = numeric_rank(in_degree_matrix(ops).matrix)
        return _rank_checks(rng, t, ops, slice(None), rank_e, d)

    return _run_suite("rank_lower_bound_random_splits", trials, seed, trial)


def _independent_pair_instance(
    rng: np.random.Generator,
) -> tuple[list[RelationOperator], tuple[int, int]]:
    """Two-relation graph where nodes 0 and 1 have linearly independent
    integer in-degree vectors fed by disjoint source nodes."""
    while True:
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, e = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if a * e - b * c != 0:
            break
    counts = [(a, b), (c, e)]
    edges1: list[tuple[int, int, float]] = []
    edges2: list[tuple[int, int, float]] = []
    nxt = 2
    for node, (k1, k2) in enumerate(counts):
        for _ in range(k1):
            edges1.append((nxt, node, 1.0))
            nxt += 1
        for _ in range(k2):
            edges2.append((nxt, node, 1.0))
            nxt += 1
    n = nxt
    ops = [
        operator_for_graph(Graph(n=n, edges=tuple(edges1)), RAW),
        operator_for_graph(Graph(n=n, edges=tuple(edges2)), RAW),
    ]
    return ops, (0, 1)


def verify_independence_on_constructions(
    trials: int = 500, seed: int = 0, d: int = 8
) -> VerificationReport:
    """Constructed structurally independent pairs always yield rank-2 output
    row pairs; one freshly built instance per trial."""

    def trial(rng: np.random.Generator, t: int):
        ops, pair = _independent_pair_instance(rng)
        return _rank_checks(rng, t, ops, list(pair), 2, d)

    return _run_suite("constructed_independent_pairs", trials, seed, trial)


def run_full_suite(seed: int = 0, trials: int = 500) -> list[VerificationReport]:
    """All verification suites with a shared seed; trial counts scale with
    the requested budget, and any budget of at least one trial runs every
    suite at least once."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    small = max(1, trials // 5) if trials else 0
    return [
        verify_rank_theorem_random_splits(trials=trials, seed=seed),
        verify_independence_on_constructions(trials=trials, seed=seed),
        verify_zero_convergence(trials=small, seed=seed),
        verify_dag_pair_rank(trials=small * 2, seed=seed),
        verify_ergodic_rank_one(instances=20 if trials else 0, seed=seed),
        verify_dar_independent_pairs(trials=small, seed=seed),
    ]
