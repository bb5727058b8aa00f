"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line
(visible even under captured output), and then asserts. The criteria pin
trial counts, tolerances, and budgets; do not weaken them to make a run
green — a red criterion is a finding.
"""

import time

import numpy as np

from mrsplit import autodiff as ad
from mrsplit.cli import EXIT_OK, main
from mrsplit.diagnostics import (
    exact_rank_small,
    numeric_rank,
    rod,
    structurally_independent,
    verify_dag_pair_rank,
    verify_dar_independent_pairs,
    verify_ergodic_rank_one,
    verify_independence_on_constructions,
    verify_rank_theorem_random_splits,
    verify_zero_convergence,
)
from mrsplit.trainer import (
    ModelConfig,
    TaskParams,
    compare_base_vs_split,
    compile_task,
    forward,
    init_model,
    make_synthetic_task,
)
from mrsplit.trajectories import TraceConfig, rod_trace
from test_trainer import tied_split_init


def report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


class TestCriterion1:
    def test_fig2_rod_trajectories(self, capsys):
        start = time.monotonic()
        traces = rod_trace(TraceConfig())  # 50 graphs, 128 layers, d=16, relu
        elapsed = time.monotonic() - start
        collapse_ok = True
        stable_ok = True
        for variant in ("gcn", "sage"):
            collapse_ok &= traces[variant]["rod_mean"][127] <= 0.01
        for variant in ("mrs_gcn", "mrs_sage"):
            final = traces[variant]["rod_mean"][127]
            at8 = traces[variant]["rod_mean"][7]
            stable_ok &= final >= 0.1
            stable_ok &= 0.5 * at8 <= final <= 1.5 * at8
        ok = collapse_ok and stable_ok and elapsed < 120.0
        report(
            capsys, 1,
            "deep-stack ROD: base collapses, split stays flat "
            f"({elapsed:.1f}s)", ok,
        )


class TestCriterion2:
    def test_rank_lower_bound_500_trials(self, capsys):
        rep = verify_rank_theorem_random_splits(trials=500, seed=0)
        report(
            capsys, 2,
            f"rank(output) >= rank(E) in {rep.trials - rep.failures}/{rep.trials}",
            rep.failures == 0,
        )


class TestCriterion3:
    def test_independent_pairs_500_trials(self, capsys):
        rep = verify_independence_on_constructions(trials=500, seed=0)
        fig_ok = (
            not structurally_independent((4.0, 2.0), (2.0, 1.0))
            and structurally_independent((3.0, 2.0), (2.0, 1.0))
        )
        report(
            capsys, 3,
            "independent pairs give rank-2 rows; reference vectors classified",
            rep.failures == 0 and fig_ok,
        )


class TestCriterion4:
    def test_exact_zero_convergence(self, capsys):
        rep = verify_zero_convergence(trials=100, seed=0)
        report(
            capsys, 4,
            f"DAG mean-aggregation exactly zero at depth+1 in {rep.trials} trials",
            rep.failures == 0,
        )


class TestCriterion5:
    def test_dag_pair_prevents_collapse(self, capsys):
        rep = verify_dag_pair_rank(trials=200, seed=0, depth=16)
        report(
            capsys, 5,
            "DAG + reverse keeps all rows nonzero and rank >= 2 at depth 16",
            rep.failures == 0,
        )


class TestCriterion6:
    def test_ergodic_and_dar_pairs(self, capsys):
        ergodic = verify_ergodic_rank_one(instances=20)
        dar = verify_dar_independent_pairs(trials=100, seed=0)
        report(
            capsys, 6,
            "ergodic relations rank-one; DAR pairs always contain an "
            "independent pair",
            ergodic.failures == 0 and dar.failures == 0,
        )


class TestCriterion7:
    def test_gradient_checks_50_configs(self, capsys):
        rng = np.random.default_rng(0)
        variants = ("gcn", "sage", "mrs_gcn", "mrs_sage")
        activations = ("identity", "relu", "leaky_relu", "sigmoid")
        jks = ("none", "cat", "max")
        step = 1e-6
        failures = 0
        for trial in range(50):
            task = make_synthetic_task(
                TaskParams(
                    count=3,
                    n_min=4,
                    n_max=7,
                    seed=int(rng.integers(0, 1000)),
                )
            )
            config = ModelConfig(
                variant=variants[trial % 4],
                layers=int(rng.integers(1, 4)),
                width=int(rng.integers(2, 5)),
                activation=activations[trial % 3 if trial % 2 else 3],
                jk=jks[trial % 3],
                residual=bool(trial % 2),
                seed=int(rng.integers(0, 1000)),
            )
            compiled = compile_task(task, config)
            params = init_model(config, task.params.buckets)
            tensors = params.all_tensors()

            def loss():
                return ad.mae_loss(
                    forward(params, compiled, config), compiled.targets
                )

            for t in tensors:
                t.grad = None
            ad.backward(loss())
            for t in tensors:
                grad = t.grad if t.grad is not None else np.zeros_like(t.value)
                flat = t.value.ravel()
                idx = int(np.argmax(np.abs(grad)))
                orig = flat[idx]
                flat[idx] = orig + step
                hi = float(loss().value)
                flat[idx] = orig - step
                lo = float(loss().value)
                flat[idx] = orig
                numeric = (hi - lo) / (2.0 * step)
                analytic = grad.ravel()[idx]
                if abs(numeric - analytic) / max(1.0, abs(analytic)) > 1e-5:
                    failures += 1
        report(
            capsys, 7,
            f"central finite differences over 50 configs ({failures} failures)",
            failures == 0,
        )


class TestCriterion8:
    def test_training_direction(self, capsys):
        task = make_synthetic_task(TaskParams())  # 128 graphs, default task
        config = ModelConfig(variant="gcn")  # L=4, d=32, 300 epochs
        pairs = compare_base_vs_split(task, config, seeds=(0, 1, 2))
        finals = "; ".join(
            f"seed {base.config.seed}: {base.final_mae:.3f} vs {split.final_mae:.3f}"
            for base, split in pairs
        )
        report(
            capsys, 8,
            f"split model beats base in all 3 seeds ({finals})",
            all(split.final_mae < base.final_mae for base, split in pairs),
        )

    def test_tied_weights_reduce_to_base(self, capsys):
        task = make_synthetic_task(TaskParams(count=16))
        base_cfg = ModelConfig(variant="gcn", seed=0)
        mrs_cfg = ModelConfig(variant="mrs_gcn", seed=0)
        base_out = forward(
            init_model(base_cfg, task.params.buckets),
            compile_task(task, base_cfg),
            base_cfg,
        )
        mrs_out = forward(
            tied_split_init(base_cfg, task.params.buckets),
            compile_task(task, mrs_cfg),
            mrs_cfg,
        )
        diff = float(np.abs(base_out.value - mrs_out.value).max())
        report(
            capsys, 8,
            f"tied-weight split forward matches base (diff {diff:.2e})",
            diff <= 1e-10,
        )


class TestCriterion9:
    def test_rank_oracle_agreement(self, capsys):
        rng = np.random.default_rng(0)
        mismatches = 0
        for _ in range(200):
            nr = int(rng.integers(1, 17))
            nc = int(rng.integers(1, 17))
            M = rng.integers(-9, 10, size=(nr, nc))
            if exact_rank_small(M) != numeric_rank(M.astype(float)):
                mismatches += 1
        rank_one = np.outer(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 4))
        rod_ok = rod(rank_one) <= 1e-10
        eye_ok = abs(rod(np.eye(2)) - 1.0) <= 1e-10
        report(
            capsys, 9,
            f"exact vs numeric rank on 200 matrices ({mismatches} mismatches); "
            "reference rank-one distances",
            mismatches == 0 and rod_ok and eye_ok,
        )


class TestCriterion10:
    def test_cli_byte_determinism(self, capsys, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("0\t1\n1\t2\n2\t3\n0\t3\n")
        runs = {
            "split": [
                "split", "--input", str(graph), "--undirected",
                "--ordering", "random", "--seed", "5",
            ],
            "rod-trace": [
                "rod-trace", "--graphs", "3", "--layers", "8", "--dim", "6",
                "--seed", "1",
            ],
            "verify": ["verify", "--trials", "20", "--seed", "2"],
            "train": [
                "train", "--count", "6", "--epochs", "3",
                "--model-seeds", "2", "--seed", "0",
            ],
        }
        ok = True
        for name, argv in runs.items():
            out = tmp_path / f"{name}.out"
            blobs = []
            for _ in range(2):
                assert main(argv + ["--output", str(out)]) == EXIT_OK
                blobs.append(out.read_bytes())
            ok &= blobs[0] == blobs[1]
        report(
            capsys, 10,
            "all four subcommands byte-identical across repeated runs", ok,
        )
