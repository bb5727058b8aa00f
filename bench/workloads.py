"""The five benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload builds its inputs from the workload seed before timing, then
runs passes of a fixed size. Only calls into ``mrsplit`` are timed; output
checks run between them. Program entry points are looked up through their
module on every pass (``cli.main``, ``convolution.mrs_gcn``) so a traced
pass goes through the installed span wrappers.

Checks never compare bytes. Seed-dependent numbers (ROD trace, training
finals, kernel outputs) are compared with ``reference.json`` within the
tolerances below; those references exist for program seeds
``0 .. REFERENCE_SEEDS - 1``, so a workload seed ``s`` drives program seed
``s % REFERENCE_SEEDS``. ``split-large`` is checked structurally and uses
the full seed.
"""

from __future__ import annotations

import json
import math
import re
import time
from pathlib import Path

import numpy as np

from calibrate import calibration_seconds, to_reference
from mrsplit import cli, convolution, ensembles, graph, ordering, split, trainer, trajectories

REFERENCE_SEEDS = 8
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Relative tolerances against the seed-commit references. A deep ROD trace
# and many epochs of sign-gradient descent can amplify a change of summation
# order, so they get more room than a single kernel call.
RTOL_TRACE = 1e-6
RTOL_TRAIN = 1e-6
RTOL_KERNEL = 1e-8

SPLIT_NODES = 4000
SPLIT_EDGES = 8000  # undirected TSV lines; 16,000 arcs after expansion
ROD_GRAPHS, ROD_LAYERS = 20, 128
ROD_ARGS = ("--graphs", str(ROD_GRAPHS), "--layers", str(ROD_LAYERS), "--dim", "16")
ROD_VARIANTS = ("gcn", "mrs_gcn", "sage", "mrs_sage")  # the CLI default
TRAIN_COUNT, TRAIN_EPOCHS = 128, 100
TRAIN_ARGS = ("--count", str(TRAIN_COUNT), "--epochs", str(TRAIN_EPOCHS), "--model-seeds", "1")
VERIFY_TRIALS = 1000
# run_full_suite at 1,000 trials: 1000 + 1000 + 200 + 400 + 20 + 200.
VERIFY_ITEMS = 2820
KERNEL_NODES = 2000
KERNEL_EDGES = 6000  # undirected; 12,000 arcs
KERNEL_DIM = 32
# Frozen so that each kernel takes about a fifth of a pass at the seed
# commit (about 8.5, 8, 22, 420 and 240 ms per call).
KERNEL_CALLS = (
    ("mrs_gcn", 48),
    ("mrs_sage", 50),
    ("mrs_gin", 18),
    ("mrs_gat", 1),
    ("mrs_gatedgcn", 2),
)

_NP_SCALAR = re.compile(r"np\.float64\((.*)\)")


def parse_number(text: str) -> float:
    """A float written either plainly or as ``np.float64(x)``."""
    text = text.strip()
    m = _NP_SCALAR.fullmatch(text)
    return float(m.group(1) if m else text)


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _close(value: float, ref: float, rtol: float, scale: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * max(scale, 1e-300)


def connected_pairs(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    """Exactly m distinct unordered pairs on n nodes, connected: a random
    spanning tree plus uniform extra pairs. No self-loops."""
    perm = rng.permutation(n)
    pairs: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[rng.integers(0, i)])
        pairs.add((min(a, b), max(a, b)))
    while len(pairs) < m:
        for a, b in rng.integers(0, n, size=(m - len(pairs), 2)):
            if a != b:
                pairs.add((int(min(a, b)), int(max(a, b))))
    out = sorted(pairs)
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def split_stats(graphs) -> dict:
    """Sizes of a graph ensemble and of its degree-ordered split."""
    n = arcs = 0
    rel = [0, 0, 0]
    for g in graphs:
        mrg = split.split_edges(g, ordering.order_degree(g))
        n += g.n
        arcs += g.num_edges
        for k in range(3):
            rel[k] += len(mrg.relations[k])
    return {
        "graphs": len(graphs),
        "nodes": n,
        "arcs": arcs,
        "E1": rel[0],
        "E2": rel[1],
        "E3": rel[2],
        "remainder_share": round(rel[2] / arcs, 4) if arcs else 0.0,
    }


def load_references() -> dict:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


class Workload:
    """One seeded workload. Subclasses define a pass and its checks."""

    name = ""
    items_per_pass = 0
    model_epochs_per_pass = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.prog_seed = seed % REFERENCE_SEEDS
        self.workdir = workdir
        self.props: dict = {"items_per_pass": self.items_per_pass}
        self.setup_extra_s = self.raw_setup_extra_s = 0.0  # reference and raw seconds
        self.last_digest: dict | None = None
        self.out = workdir / f"{self.name}.out"
        refs = load_references().get(self.name, {})
        self.reference = refs.get(str(self.prog_seed))

    def run_pass(self) -> tuple[float, int, list[str]]:
        """(seconds inside mrsplit, operations attempted, failure messages).

        By default a pass is one CLI invocation of ``self.argv()``.
        """
        dt, err, text = self._cli(self.argv(), self.out)
        err = err or self.check(text)
        return dt, 1, [f"{self.name}: {err}"] if err else []

    def _cli(self, argv: list[str], out: Path) -> tuple[float, str | None, str]:
        """Run one CLI invocation that writes to ``out``.

        Returns (seconds, failure message or None, output text).
        """
        out.unlink(missing_ok=True)
        argv = [*argv, "--output", str(out)]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            return time.perf_counter() - t0, f"raised {exc!r}", ""
        dt = time.perf_counter() - t0
        if code != 0:
            return dt, f"exited with {code}", ""
        if not out.is_file():
            return dt, "wrote no output", ""
        return dt, None, out.read_text()

    def _ref_failure(self) -> str | None:
        if self.reference is None:
            return f"no reference for program seed {self.prog_seed}"
        return None


class SplitLarge(Workload):
    name = "split-large"
    items_per_pass = 2 * 2 * SPLIT_EDGES  # one input arc per invocation
    orderings = ("degree", "ppr")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        pairs = connected_pairs(rng, SPLIT_NODES, SPLIT_EDGES)
        flip = rng.random(len(pairs)) < 0.5
        lines = [f"#n={SPLIT_NODES}"]
        for (a, b), f in zip(pairs, flip):
            lines.append(f"{b}\t{a}" if f else f"{a}\t{b}")
        self.input = workdir / "split_input.tsv"
        self.input.write_text("\n".join(lines) + "\n")
        src = np.array([a for a, b in pairs] + [b for a, b in pairs])
        dst = np.array([b for a, b in pairs] + [a for a, b in pairs])
        self.arcs = set(zip(src.tolist(), dst.tolist()))
        self.degree = np.bincount(src, minlength=SPLIT_NODES).astype(np.float64)
        self.props.update(nodes=SPLIT_NODES, arcs=len(self.arcs))

    def argv(self, order: str) -> list[str]:
        return [
            "split", "--input", str(self.input), "--undirected",
            "--ordering", order, "--seed", str(self.seed),
        ]

    def run_pass(self):
        total, failures = 0.0, []
        for order in self.orderings:
            out = self.workdir / f"split_{order}.json"
            dt, err, text = self._cli(self.argv(order), out)
            total += dt
            err = err or self.check(text, order)
            if err:
                failures.append(f"split --ordering {order}: {err}")
        return total, len(self.orderings), failures

    def check(self, text: str, order: str) -> str | None:
        try:
            data = strict_json(text)
            rels = [[tuple(a) for a in data[k]] for k in ("E1", "E2", "E3")]
            r = np.array(data["scores"], dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"
        if data.get("ordering") != order:
            return f"ordering is {data.get('ordering')!r}"
        if r.shape != (SPLIT_NODES,) or not np.all(np.isfinite(r)):
            return "scores are not n finite numbers"
        listed = [a for rel in rels for a in rel]
        if not all(len(a) == 2 and type(a[0]) is type(a[1]) is int for a in listed):
            return "an arc is not a pair of integers"
        if len(listed) != len(self.arcs) or set(listed) != self.arcs:
            return "E1, E2 and E3 do not partition the input arcs"
        for k, (rel, cmp) in enumerate(zip(rels, (np.less, np.greater, np.equal))):
            if rel:
                s, d = np.array(rel).T
                if not np.all(cmp(r[s], r[d])):
                    return f"an E{k + 1} arc breaks the score order"
        if order == "degree" and not np.array_equal(r, self.degree):
            return "degree scores differ from the input degrees"
        if order == "ppr" and (abs(r.sum() - 1.0) > 1e-9 or r.min() <= 0.0):
            return f"PPR scores sum to {float(r.sum())!r}"
        self.props[f"{order}_split"] = {
            f"E{k + 1}": len(rel) for k, rel in enumerate(rels)
        } | {"remainder_share": round(len(rels[2]) / len(listed), 4)}
        return None


class RodTrace(Workload):
    name = "rod-trace"
    items_per_pass = ROD_GRAPHS * len(ROD_VARIANTS) * ROD_LAYERS  # (graph, variant, layer)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        cfg = trajectories.TraceConfig()
        master = np.random.default_rng(self.prog_seed)
        graphs = [
            ensembles.molecule_like_graph(master, cfg.n_min, cfg.n_max)
            for _ in range(ROD_GRAPHS)
        ]
        self.props.update(split_stats(graphs), program_seed=self.prog_seed)

    def argv(self) -> list[str]:
        return ["rod-trace", *ROD_ARGS, "--seed", str(self.prog_seed)]

    @staticmethod
    def digest_of(text: str) -> dict:
        """Per (variant, column): sum, index-weighted sum, first and last."""
        lines = text.strip().split("\n")
        if lines[0] != "iter,variant,rod_mean,dirichlet_mean":
            raise ValueError(f"header is {lines[0]!r}")
        cols: dict[str, list[list[float]]] = {v: [[], []] for v in ROD_VARIANTS}
        for k, line in enumerate(lines[1:]):
            it, variant, rod_v, energy = line.split(",")
            if int(it) != k // len(ROD_VARIANTS) + 1 or variant != ROD_VARIANTS[k % len(ROD_VARIANTS)]:
                raise ValueError(f"row {k + 1} is {line!r}")
            cols[variant][0].append(parse_number(rod_v))
            cols[variant][1].append(parse_number(energy))
        out = {}
        for variant, pair in cols.items():
            for name, vals in zip(("rod", "dirichlet"), pair):
                v = np.array(vals)
                if v.size != ROD_LAYERS or not np.all(np.isfinite(v)) or v.min() < 0:
                    raise ValueError(f"{variant} {name}: not {ROD_LAYERS} finite values >= 0")
                w = np.arange(1, v.size + 1)
                out[f"{variant}.{name}"] = [
                    float(v.sum()), float(w @ v), float(v[0]), float(v[-1])
                ]
        return out

    def check(self, text: str) -> str | None:
        try:
            digest = self.digest_of(text)
        except ValueError as exc:
            return f"unreadable CSV: {exc}"
        self.last_digest = digest
        if err := self._ref_failure():
            return err
        for key, ref in self.reference.items():
            scale = abs(ref[0])
            if not all(_close(a, b, RTOL_TRACE, scale) for a, b in zip(digest[key], ref)):
                return f"{key} differs from the reference: {digest[key]} vs {ref}"
        return None


class Train(Workload):
    name = "train"
    items_per_pass = 2 * TRAIN_EPOCHS  # two models (gcn, mrs_gcn)
    model_epochs_per_pass = items_per_pass
    _summary = re.compile(r"# summary: winner=(\S+); seed 0: gcn=(\S+) mrs_gcn=(\S+)")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        task = trainer.make_synthetic_task(
            trainer.TaskParams(count=TRAIN_COUNT, seed=self.prog_seed)
        )
        self.props.update(split_stats(task.graphs), program_seed=self.prog_seed)

    def argv(self) -> list[str]:
        return ["train", *TRAIN_ARGS, "--seed", str(self.prog_seed)]

    def check(self, text: str) -> str | None:
        lines = text.strip().split("\n")
        if lines[0] != "variant,seed,epoch,train_mae" or len(lines) != 2 + 2 * (TRAIN_EPOCHS + 1):
            return "unexpected CSV shape"
        m = self._summary.fullmatch(lines[-1])
        if m is None:
            return f"unreadable summary {lines[-1]!r}"
        try:
            finals = {"gcn": parse_number(m.group(2)), "mrs_gcn": parse_number(m.group(3))}
            last = {row.split(",")[0]: parse_number(row.split(",")[3])
                    for row in lines[1:-1] if row.split(",")[2] == str(TRAIN_EPOCHS)}
        except (ValueError, IndexError) as exc:
            return f"unreadable row: {exc!r}"
        if not all(math.isfinite(v) for v in finals.values()):
            return f"non-finite finals {finals}"
        if last != finals:
            return f"last-epoch rows {last} differ from the summary {finals}"
        self.last_digest = finals
        if err := self._ref_failure():
            return err
        for key, ref in self.reference.items():
            if not _close(finals[key], ref, RTOL_TRAIN, abs(ref)):
                return f"{key} final {finals[key]!r} differs from the reference {ref!r}"
        return None


class Verify(Workload):
    name = "verify"
    items_per_pass = VERIFY_ITEMS  # one trial, summed over the six suites

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.props.update(trials=VERIFY_TRIALS, suites=6, program_seed=self.prog_seed)

    def argv(self) -> list[str]:
        return ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(self.prog_seed)]

    def check(self, text: str) -> str | None:
        try:
            data = strict_json(text)
            trials = sum(r["trials"] for r in data["reports"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON: {exc}"
        if data.get("all_passed") is not True:
            return "all_passed is not true"
        if len(data["reports"]) != 6 or trials != VERIFY_ITEMS:
            return f"{len(data['reports'])} suites with {trials} trials"
        return None


class Kernels(Workload):
    name = "kernels"
    items_per_pass = sum(count for _, count in KERNEL_CALLS)  # kernel calls

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = np.random.default_rng([self.prog_seed, 2])
        arcs = []
        for a, b in connected_pairs(rng, KERNEL_NODES, KERNEL_EDGES):
            arcs += [(a, b), (b, a)]
        g = graph.graph_from_pairs(KERNEL_NODES, arcs, undirected=True)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            self.mrg = split.split_edges(g, ordering.order_degree(g))
            times.append(time.perf_counter() - t0)
        self.raw_setup_extra_s = float(np.median(times))
        self.setup_extra_s = to_reference(self.raw_setup_extra_s, calibration_seconds())
        d = KERNEL_DIM
        self.X = rng.uniform(-1.0, 1.0, (KERNEL_NODES, d))
        p = {
            "mrs_gcn": convolution.linear_params(rng, d, d),
            "mrs_sage": convolution.sage_params(rng, d, d),
            "mrs_gin": convolution.gin_params(rng, d, d),
            "mrs_gat": convolution.gat_params(rng, d, d),
            "mrs_gatedgcn": convolution.gatedgcn_params(rng, d, d),
        }
        self.args = {k: (self.X, self.mrg, v) for k, v in p.items()}
        self.args["mrs_gatedgcn"] = (self.X, None, self.mrg, p["mrs_gatedgcn"])
        self.weights = {
            w: np.cos(0.37 * np.arange(KERNEL_NODES * w)).reshape(KERNEL_NODES, w)
            for w in (d, 2 * d)
        }
        self.props.update(split_stats([g]), program_seed=self.prog_seed, dim=d,
                          calls=dict(KERNEL_CALLS))
        self.last_digest = {}

    def run_pass(self):
        total, failures = 0.0, []
        for kernel, count in KERNEL_CALLS:
            fn = getattr(convolution, kernel)
            args = self.args[kernel]
            for _ in range(count):
                t0 = time.perf_counter()
                try:
                    out = fn(*args)
                except Exception as exc:  # a crash is a failed call, not a stop
                    failures.append(f"{kernel} raised {exc!r}")
                    continue
                finally:
                    total += time.perf_counter() - t0
                if err := self.check(kernel, out):
                    failures.append(f"{kernel}: {err}")
        return total, self.items_per_pass, failures

    def check(self, kernel: str, out) -> str | None:
        width = 2 * KERNEL_DIM if kernel == "mrs_gat" else KERNEL_DIM
        if not isinstance(out, np.ndarray) or out.shape != (KERNEL_NODES, width):
            return f"output shape {getattr(out, 'shape', None)}"
        if not np.all(np.isfinite(out)):
            return "non-finite output"
        norm = float(np.linalg.norm(out))
        checksum = float(np.sum(out * self.weights[width]))
        self.last_digest[kernel] = [norm, checksum]
        if err := self._ref_failure():
            return err
        ref_norm, ref_sum = self.reference[kernel]
        if not (_close(norm, ref_norm, RTOL_KERNEL, ref_norm)
                and _close(checksum, ref_sum, RTOL_KERNEL, ref_norm)):
            return f"norm/checksum {norm!r}/{checksum!r} vs {ref_norm!r}/{ref_sum!r}"
        return None

    def costs(self) -> dict[str, tuple[float, float]]:
        """Computed (not measured) flop and compulsory bytes per call.

        n nodes, m arcs over all relations, d = d_in = d_out, 8-byte floats,
        CSR operators at 16 bytes per stored arc. Bytes count reading X, the
        weights and the graph once and writing the output once.
        """
        n, d = KERNEL_NODES, KERNEL_DIM
        m = sum(len(r) for r in self.mrg.relations)
        nd, nd2, dd = n * d, n * d * d, d * d
        flop = {
            "mrs_gcn": 6 * nd2 + 2 * m * d + 3 * nd,
            "mrs_sage": 8 * nd2 + 2 * m * d + 3 * nd,
            "mrs_gin": 12 * nd2 + 2 * m * d + 12 * nd,
            "mrs_gat": 12 * nd2 + 2 * m * (6 * d + 5),
            "mrs_gatedgcn": 2 * nd2 + m * (8 * dd + 9 * d) + 3 * nd,
        }
        weights = {"mrs_gcn": 3, "mrs_sage": 4, "mrs_gin": 6, "mrs_gat": 6, "mrs_gatedgcn": 7}
        out_width = {"mrs_gat": 2 * d}
        return {
            k: (
                float(flop[k]),
                float(8 * (nd + n * out_width.get(k, d) + weights[k] * dd) + 16 * m),
            )
            for k in flop
        }


WORKLOADS = {
    w.name: w for w in (SplitLarge, RodTrace, Train, Verify, Kernels)
}
