"""Structural-independence analysis, rank estimation, rank-one distance,
Dirichlet energy, and executable verification suites for the linear-algebra
guarantees of split message passing.

Verification routines report failures instead of raising; a failed trial is
data, not an exception.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy import sparse

from ._pool import _fork_map
from .convolution import identity, leaky_relu, relation_sum, relu
from .ensembles import molecule_like_graph, random_connected_dag
from .graph import Graph, graph_from_pairs, longest_path_length, reverse
from .ordering import OrderingScores, order_random
from .split import RAW, ROW_MEAN, SYM_GCN, read_only_operator, union_operators

DEFAULT_RANK_TOL = 1e-8
ROW_ZERO_TOL = 1e-12
# Feature width of the random states and transforms the theorem suites draw.
VERIFY_DIM = 8


def in_degree_matrix(ops: Sequence[sparse.csr_matrix]) -> np.ndarray:
    """n x l matrix whose row i stacks node i's weighted in-degrees: the
    per-relation row sums op.sum(axis=1) of the given operators."""
    if len(ops) == 0:
        raise ValueError("the in-degree matrix needs at least one operator")
    if len({op.shape for op in ops}) > 1:
        raise ValueError("operators must share the same node count")
    return np.column_stack([np.asarray(op.sum(axis=1), dtype=np.float64) for op in ops])


def _ranks(M: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Rank of each matrix in the stack M (..., r, c): the count of singular
    values above rel_tol * sigma_max, 0 for a zero or empty matrix. A
    non-finite entry is a ValueError."""
    if M.size == 0:
        return np.zeros(M.shape[:-2], dtype=np.intp)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix must have finite entries")
    svals = np.linalg.svd(M, compute_uv=False)
    return np.sum(svals > rel_tol * svals[..., :1], axis=-1)


def numeric_rank(M: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above rel_tol * sigma_max (0 for the zero matrix)."""
    return int(_ranks(np.asarray(M, dtype=np.float64), rel_tol))


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


def structurally_independent(d_i, d_j) -> bool:
    """True iff the two weighted in-degree vectors are linearly independent.

    A zero vector is dependent on everything. Symmetric in its arguments.
    """
    a = np.asarray(d_i, dtype=np.float64)
    b = np.asarray(d_j, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("expected two equal-length vectors")
    return numeric_rank(np.stack([a, b])) == 2


def _independent_pair_count(E: np.ndarray) -> np.ndarray:
    """Per matrix of the stack E (..., n, l), the number of node pairs i < j
    whose finite rows i and j are structurally independent, from one
    batched rank over all pairs."""
    i, j = np.triu_indices(E.shape[-2], k=1)
    pairs = np.stack([E[..., i, :], E[..., j, :]], axis=-2)  # (..., pairs, 2, l)
    return np.count_nonzero(_ranks(pairs) == 2, axis=-1)


def _nuclear_norms(X: np.ndarray) -> np.ndarray:
    return np.linalg.svd(X, compute_uv=False).sum(axis=-1)


def _scalar_or_stack(values: np.ndarray, X: np.ndarray):
    return float(values) if X.ndim == 2 else values


def rod(X: np.ndarray) -> float | np.ndarray:
    """Nuclear-norm distance of X (normalized) to its dominant rank-one part.

    The rank-one reference is u v^T with u the column and v the row of X of
    largest Euclidean norm (ties broken by lowest index). Zero iff X is
    effectively rank one; invariant under positive scaling of X.

    X is one matrix (n, d), giving a float, or a stack (..., n, d), giving
    one distance per matrix; each matrix in a stack measures exactly what it
    measures on its own.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2:
        raise ValueError("rank-one distance needs a matrix or a stack of matrices")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix must have finite entries")
    nuc = _nuclear_norms(X)
    if np.any(nuc == 0.0):
        raise ValueError("rank-one distance is undefined for the zero matrix")
    col_norms = np.sqrt(np.add.reduce(X * X, axis=-2))
    row_norms = np.sqrt(np.add.reduce(X * X, axis=-1))
    col = np.argmax(col_norms, axis=-1)[..., None, None]
    row = np.argmax(row_norms, axis=-1)[..., None, None]
    u = np.take_along_axis(X, col, axis=-1)[..., 0]
    v = np.take_along_axis(X, row, axis=-2)[..., 0, :]
    ref = u[..., :, None] * v[..., None, :]
    # u and v carry an arbitrary relative sign; orient the reference toward X
    # so exact rank-one inputs measure 0 rather than 2.
    flip = np.sum(X * ref, axis=(-2, -1)) < 0.0
    ref = np.where(flip[..., None, None], -ref, ref)
    ref_nuc = np.sqrt(np.vecdot(u, u)) * np.sqrt(np.vecdot(v, v))
    dist = _nuclear_norms(X / nuc[..., None, None] - ref / ref_nuc[..., None, None])
    return _scalar_or_stack(dist, X)


def dirichlet_energy(X: np.ndarray, g: Graph) -> float | np.ndarray:
    """Sum over arcs (i, j) of ||x_i - x_j||^2, added in arc order.

    X is one feature matrix (n, d), giving a float, or a stack (..., n, d)
    of feature matrices on the same graph, giving one energy per matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-2] != g.n:
        raise ValueError("feature rows must match graph node count")
    if not g.num_edges:
        return _scalar_or_stack(np.zeros(X.shape[:-2]), X)
    diff = X[..., g.src, :] - X[..., g.dst, :]
    # A sequential running sum, not np.sum's pairwise one, keeps every result
    # bit-identical to adding the arcs one at a time.
    energy = np.add.accumulate(np.vecdot(diff, diff), axis=-1)[..., -1]
    return _scalar_or_stack(energy, X)


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
        return asdict(self) | {"passed": self.passed}


_SIGMAS = (identity, leaky_relu)

# Most state rows one block system holds. A group with more rows steps in
# chunks.
_BLOCK_ROWS = 4096
# Most units whose instances are alive at once: the runner draws and steps
# its units this many at a time.
_DRAW_WINDOW = 2048

# One trial's checks: one (margin, note) pair per check, where a note that is
# not None marks a failed check.
_Checks = list[tuple[float, Optional[str]]]

# A unit's source of relations: a (graph, scores) pair whose relations are
# those of the graph split under its scores, or the graph whole when scores
# is None.
_Source = tuple[Graph, Optional[OrderingScores]]


@dataclass
class _Unit:
    """A drawn unit of _run_units: its index in unit order, its generator,
    and the normalization mode and the relation sources of its operators."""

    t: int
    rng: np.random.Generator
    mode: str
    sources: Sequence[_Source]

    @property
    def n(self) -> int:
        return self.sources[0][0].n


# The step of _run_units.
_Step = Callable[[list[_Unit], Sequence[sparse.csr_matrix]], Sequence]


def _block_diagonals(parts: Sequence[Sequence[sparse.csr_matrix]]) -> list[sparse.csr_matrix]:
    """Per operator slot of the parts, the read-only block-diagonal CSR
    operator of their operators, where a part with fewer slots than the most
    has an empty block; a lone part's operators as they are."""
    if len(parts) == 1:
        return list(parts[0])
    slots = max(map(len, parts))
    padded = [[*ops, *[sparse.csr_matrix(ops[0].shape)] * (slots - len(ops))] for ops in parts]
    return [read_only_operator(sparse.block_diag(ops, format="csr")) for ops in zip(*padded)]


def _block_system(chunk: list[_Unit]) -> list[sparse.csr_matrix]:
    """The chunk's block-diagonal operators. Each run of consecutive units
    with the same mode and the same whole or split sources is, source by
    source, every relation of one union_operators over the run's graphs and
    scores in that mode; the runs are glued slot by slot."""
    runs = []
    for (mode, _), run in groupby(chunk, lambda u: (u.mode, [s is None for _, s in u.sources])):
        ops = []
        for source in zip(*(u.sources for u in run)):
            graphs, scores = zip(*source)
            ops.extend(union_operators(graphs, None if scores[0] is None else scores, mode))
        runs.append(ops)
    return _block_diagonals(runs)


def _groups(items: Iterable, key: Callable[[Any], int]) -> list[list]:
    """The items grouped by key(item), in key order, each group in item order."""
    return [list(group) for _, group in groupby(sorted(items, key=key), key)]


def _run_units(
    units: Sequence,
    draw: Callable[[Any], tuple[np.random.Generator, str, Sequence[_Source]]],
    step: _Step,
) -> Iterator:
    """Each unit's result, in unit order, from stepping the units in block
    systems.

    draw(unit) seeds the unit's own generator and gives it with the mode and
    the relation sources of the unit's operators. The units of one node
    count then step as one block system, at most _BLOCK_ROWS rows at a time:
    _block_system(chunk) builds the chunk's operators and step(chunk, blocks)
    gives each unit's result, drawing from each unit's generator in the
    unit's own order. Each unit steps as it would alone, so the grouping
    changes nothing.
    Units are drawn and stepped _DRAW_WINDOW at a time, so memory does not
    grow with the unit count.
    """
    for start in range(0, len(units), _DRAW_WINDOW):
        stop = min(start + _DRAW_WINDOW, len(units))
        window = [_Unit(t, *draw(units[t])) for t in range(start, stop)]
        results = {}
        for group in _groups(window, lambda u: u.n):
            size = max(1, _BLOCK_ROWS // max(group[0].n, 1))
            for i in range(0, len(group), size):
                chunk = group[i : i + size]
                blocks = _block_system(chunk)
                results.update(zip((u.t for u in chunk), step(chunk, blocks), strict=True))
        yield from (results[u.t] for u in window)


def _run_suite(
    theorem: str,
    trials: int,
    seed: int,
    mode: str,
    draw: Callable[[np.random.Generator, int], Sequence[_Source]],
    step: _Step,
) -> VerificationReport:
    """The report of trials 0 to trials - 1, stepped by _run_units.

    draw(rng, t) gives trial t's relation sources, to be normalized in mode,
    drawing from its own generator default_rng([seed, t]), and step each
    trial's checks.
    The checks are folded in trial order: min_margin is the smallest margin
    seen, 0.0 when no check ran, and the first ten failure notes are kept.
    """

    def seeded(t: int) -> tuple[np.random.Generator, str, Sequence[_Source]]:
        rng = np.random.default_rng([seed, t])
        return rng, mode, draw(rng, t)

    checks = [check for found in _run_units(range(trials), seeded, step) for check in found]
    notes = [note for _, note in checks if note is not None]
    min_margin = min([np.inf, *(margin for margin, _ in checks)])
    return VerificationReport(
        theorem=theorem,
        trials=trials,
        failures=len(notes),
        min_margin=float(min_margin) if np.isfinite(min_margin) else 0.0,
        seed=seed,
        notes=notes[:10],
    )


def _unit_states(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stack X (states, n, d) with each state scaled to unit Frobenius
    norm, and the mask of states that are not exact zero. Dividing a
    collapsed state by inf leaves it exact zero rows."""
    flat = X.reshape(len(X), -1)
    norm = np.sqrt(np.vecdot(flat, flat))
    live = norm != 0.0
    return X / np.where(live, norm, np.inf)[:, None, None], live


def _states(group: list[_Unit], d: int = VERIFY_DIM) -> np.ndarray:
    """A (units, n, d) stack of uniform states, one per unit's generator."""
    return np.stack([u.rng.uniform(-1, 1, (u.n, d)) for u in group])


def _transforms(group: list[_Unit], slots: int) -> np.ndarray:
    """A (slots, trials, VERIFY_DIM, VERIFY_DIM) stack of uniform transforms:
    per trial, one draw that gives what one draw per slot would."""
    return np.stack(
        [tr.rng.uniform(-1, 1, (slots, VERIFY_DIM, VERIFY_DIM)) for tr in group], axis=1
    )


def _in_degree_stack(group: list[_Unit], blocks: list[sparse.csr_matrix]) -> np.ndarray:
    """The (trials, n, slots) stack of the group's in-degree matrices: a row
    of a block-diagonal operator sums as the block's row does."""
    return in_degree_matrix(blocks).reshape(len(group), group[0].n, len(blocks))


def _rank_checks(rows, target: Optional[int] = None) -> _Step:
    """Step that checks, per activation, the rank of the selected output rows
    of one split convolution of a random rank-one input against a target
    rank: the given one, or each trial's rank(E) when target is None."""

    def step(group: list[_Unit], blocks: list[sparse.csr_matrix]) -> list[_Checks]:
        X = np.stack([
            np.outer(tr.rng.uniform(-1, 1, tr.n), tr.rng.uniform(-1, 1, VERIFY_DIM))
            for tr in group
        ])
        pre = relation_sum(X, blocks, _transforms(group, len(blocks)))
        if target is None:
            targets = _ranks(_in_degree_stack(group, blocks)).tolist()
        else:
            targets = [target] * len(group)
        checks: list[_Checks] = [[] for _ in group]
        for sigma in _SIGMAS:
            for b, rank in enumerate(_ranks(sigma(pre)[:, rows]).tolist()):
                t, want = group[b].t, targets[b]
                note = f"trial {t} ({sigma.__name__}): rank {rank} < {want}"
                checks[b].append((rank - want, note if rank < want else None))
        return checks

    return step


def verify_zero_convergence(trials: int = 100, seed: int = 0) -> VerificationReport:
    """Mean aggregation on a DAG without leaf self-loops drives every state
    to exactly zero after longest-path-length + 1 steps."""

    def draw(rng: np.random.Generator, t: int):
        return [(random_connected_dag(rng, int(rng.integers(5, 21))), None)]

    def step(group: list[_Unit], blocks: list[sparse.csr_matrix]) -> list[_Checks]:
        X = _states(group)
        weights = np.zeros((1, len(group), VERIFY_DIM, VERIFY_DIM))
        depths = np.array([longest_path_length(tr.sources[0][0]) + 1 for tr in group])
        for it in range(depths.max()):
            # A trial past its depth draws no more and keeps its state.
            active = np.flatnonzero(it < depths)
            weights[:, active] = _transforms([group[b] for b in active], 1)
            X[active] = relu(relation_sum(X, blocks, weights))[active]
        peaks = np.abs(X).max(axis=(1, 2)).tolist()
        return [
            [(-peak, f"trial {tr.t}: residual magnitude {peak}" if peak != 0.0 else None)]
            for tr, peak in zip(group, peaks)
        ]

    return _run_suite("dag_zero_convergence", trials, seed, ROW_MEAN, draw, step)


def verify_dag_pair_rank(
    trials: int = 200, seed: int = 0, depth: int = 16
) -> VerificationReport:
    """A DAG plus its reverse with distinct transforms keeps every row
    nonzero and rank above one at depth `depth`.

    States are rescaled to unit Frobenius norm between steps; the layer is
    positively homogeneous, so this only changes scale, never rank or
    row-wise nonzeroness. A state that reaches exact zero stops drawing and
    stays zero, and fails both conditions. A trial's relations are its DAG
    and its reverse, mean-normalized: dar_pair_from_dag's pair, whose
    acyclicity and coverage checks every connected DAG drawn here passes.
    """

    def draw(rng: np.random.Generator, t: int):
        dag = random_connected_dag(rng, int(rng.integers(6, 25)))
        return [(dag, None), (reverse(dag), None)]

    def step(group: list[_Unit], blocks: list[sparse.csr_matrix]) -> list[_Checks]:
        checks: list[_Checks] = [[] for _ in group]
        for sigma in _SIGMAS:
            X = _states(group)
            weights = np.zeros((len(blocks), len(group), VERIFY_DIM, VERIFY_DIM))
            live = np.ones(len(group), dtype=bool)
            for _ in range(depth):
                # A collapsed state draws no more; its zero rows stay zero
                # under the transforms it drew last.
                alive = np.flatnonzero(live)
                weights[:, alive] = _transforms([group[b] for b in alive], len(blocks))
                X, live = _unit_states(sigma(relation_sum(X, blocks, weights)))
                if not live.any():
                    break
            row_mins = np.linalg.norm(X, axis=-1).min(axis=-1).tolist()
            for b, (tr, rank, row_min) in enumerate(zip(group, _ranks(X).tolist(), row_mins)):
                failed = row_min <= ROW_ZERO_TOL or rank < 2
                note = f"trial {tr.t} ({sigma.__name__}): rank {rank}, min row {row_min:.2e}"
                checks[b].append((min(rank - 2, row_min - ROW_ZERO_TOL), note if failed else None))
        return checks

    return _run_suite("dag_pair_rank_preserved", trials, seed, ROW_MEAN, draw, step)


def _ergodic_instance(idx: int) -> list[Graph]:
    """Two cycle relations over n nodes, each to be mean-normalized row-wise."""
    n = 4 + idx
    step = 2 + (idx % max(1, n - 3))
    rel1 = graph_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
    rel2 = graph_from_pairs(n, [(i, (i + step) % n) for i in range(n)])
    return [rel1, rel2]


def verify_ergodic_rank_one(instances: int = 20, seed: int = 0) -> VerificationReport:
    """Mean-normalized ergodic relation sets give a rank-one in-degree matrix,
    so no node pair is structurally independent."""

    def step(group: list[_Unit], blocks: list[sparse.csr_matrix]) -> list[_Checks]:
        ranks = _ranks(_in_degree_stack(group, blocks)).tolist()
        return [
            [(1 - rank, f"instance {tr.t}: rank(E)={rank}" if rank != 1 else None)]
            for tr, rank in zip(group, ranks)
        ]

    return _run_suite(
        "ergodic_rank_one",
        instances,
        seed,
        ROW_MEAN,
        lambda rng, idx: [(g, None) for g in _ergodic_instance(idx)],
        step,
    )


def verify_dar_independent_pairs(
    trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Two nonempty acyclic relations with different root sets always
    contain at least one structurally independent node pair (checked by
    exhaustive pair scan)."""

    def draw(rng: np.random.Generator, t: int):
        g = molecule_like_graph(rng, 8, 24)
        return [(g, order_random(g.n, int(rng.integers(0, 2**63))))]

    def step(group: list[_Unit], blocks: list[sparse.csr_matrix]) -> list[_Checks]:
        found = _independent_pair_count(_in_degree_stack(group, blocks[:2])).tolist()
        return [
            [(k - 1, f"trial {tr.t}: no structurally independent pair" if k == 0 else None)]
            for tr, k in zip(group, found)
        ]

    return _run_suite("dar_pair_independent_exists", trials, seed, RAW, draw, step)


def verify_rank_theorem_random_splits(
    trials: int = 500, seed: int = 0
) -> VerificationReport:
    """Rank lower bound over freshly sampled split graphs per trial."""

    def draw(rng: np.random.Generator, t: int):
        g = molecule_like_graph(rng, 8, 30)
        return [(g, order_random(g.n, int(rng.integers(0, 2**63))))]

    step = _rank_checks(slice(None))
    return _run_suite("rank_lower_bound_random_splits", trials, seed, SYM_GCN, draw, step)


def _independent_pair_instance(rng: np.random.Generator) -> list[Graph]:
    """Two relation graphs, to be taken raw, where nodes 0 and 1 have
    linearly independent integer in-degree vectors fed by disjoint source
    nodes."""
    while True:
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, e = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if a * e - b * c != 0:
            break
    # Each count k of node i's relation is k arcs into i from k new senders,
    # node 0's counts first, each node's relation 0 before its relation 1.
    counts = [a, b, c, e]
    n = 2 + sum(counts)
    senders, receivers = np.arange(2, n), np.repeat([0, 0, 1, 1], counts)
    relation = np.repeat([0, 1, 0, 1], counts)
    rels = (relation == 0, relation == 1)
    return [Graph(n, senders[m], receivers[m], np.ones(np.count_nonzero(m))) for m in rels]


def verify_independence_on_constructions(
    trials: int = 500, seed: int = 0
) -> VerificationReport:
    """Constructed structurally independent pairs always yield rank-2 output
    row pairs; one freshly built instance per trial."""
    return _run_suite(
        "constructed_independent_pairs",
        trials,
        seed,
        RAW,
        lambda rng, t: [(g, None) for g in _independent_pair_instance(rng)],
        _rank_checks([0, 1], 2),
    )


def run_full_suite(seed: int = 0, trials: int = 500) -> list[VerificationReport]:
    """All verification suites with a shared seed; trial counts scale with
    the requested budget, and any budget of at least one trial runs every
    suite at least once. The suites share no state, so they are split over
    the usable CPUs; each suite function is looked up when its report is
    made, so a wrapper bound over its name (a tracer's, say) is called."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    small = max(1, trials // 5) if trials else 0
    suites = (
        lambda: verify_rank_theorem_random_splits(trials=trials, seed=seed),
        lambda: verify_independence_on_constructions(trials=trials, seed=seed),
        lambda: verify_zero_convergence(trials=small, seed=seed),
        lambda: verify_dag_pair_rank(trials=small * 2, seed=seed),
        lambda: verify_ergodic_rank_one(instances=20 if trials else 0, seed=seed),
        lambda: verify_dar_independent_pairs(trials=small, seed=seed),
    )
    return _fork_map(lambda suite: suite(), suites)
