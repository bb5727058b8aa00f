"""Synthetic task generation, model forward/backward, and the training loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from mrsplit import _pool, trainer
from mrsplit import autodiff as ad
from mrsplit.graph import graph_from_pairs
from mrsplit.split import VARIANTS
from mrsplit.trainer import (
    ModelConfig,
    TaskParams,
    TrainResult,
    compare_base_vs_split,
    compile_task,
    degree_bucket_features,
    forward,
    graph_target,
    init_model,
    make_synthetic_task,
    train,
)
from test_autodiff import chained_relation_sum
from test_split import assert_same_csr, variant_operators

TINY_TASK = TaskParams(count=6, n_min=5, n_max=9, seed=0)


def tied_split_init(base_cfg, feat_dim):
    """Parameters for base_cfg's split counterpart with tied relation
    transforms: init_model(base_cfg)'s tensors, each layer's one relation
    transform copied into one per split relation. The split forward on
    them equals the base forward."""
    base = init_model(base_cfg, feat_dim)
    relations = VARIANTS["mrs_" + base_cfg.variant].relations
    layer_rel = [
        [ad.parameter(w.value.copy()) for w in ws for _ in range(relations)]
        for ws in base.layer_rel
    ]
    return replace(base, layer_rel=layer_rel)


def tiny_config(**overrides):
    base = dict(variant="gcn", layers=2, width=4, epochs=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


class TestConfigs:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="transformer")

    def test_rejects_bad_jk(self):
        with pytest.raises(ValueError):
            ModelConfig(jk="sum")

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            ModelConfig(activation="foo")

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError, match="unknown ordering: 'bogus'"):
            ModelConfig(variant="mrs_gcn", ordering="bogus")

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            ModelConfig(layers=0)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_lr_the_cli_rejects(self, lr):
        # A negative lr would train by gradient ascent.
        with pytest.raises(ValueError, match=f"^lr must be a finite number > 0, got {lr!r}$"):
            ModelConfig(lr=lr)

    def test_task_range_validated(self):
        with pytest.raises(ValueError):
            TaskParams(n_min=2, n_max=1)

    @pytest.mark.parametrize("buckets", [0, -1])
    def test_rejects_buckets_below_one(self, buckets):
        with pytest.raises(ValueError, match="buckets"):
            TaskParams(count=2, buckets=buckets)


class TestSyntheticTask:
    def test_deterministic(self):
        t1 = make_synthetic_task(TINY_TASK)
        t2 = make_synthetic_task(TINY_TASK)
        assert t1.graphs == t2.graphs
        assert np.array_equal(t1.targets, t2.targets)

    def test_count(self):
        assert len(make_synthetic_task(TINY_TASK).graphs) == 6

    def test_feature_shape_matches_buckets(self):
        task = make_synthetic_task(TaskParams(count=2, buckets=3, seed=1))
        for g, X in zip(task.graphs, task.features):
            assert X.shape == (g.n, 3)
            assert np.array_equal(X.sum(axis=1), np.ones(g.n))

    def test_target_sign_cancellation(self):
        # path 0-1-2-3: degrees [1,2,2,1], signs [-1,+1,+1,-1]; uniform
        # first feature makes the signed sum cancel exactly.
        g = graph_from_pairs(
            4,
            [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
            undirected=True,
        )
        assert graph_target(g, np.ones((4, 1))) == 0.0

    def test_bucket_features_one_hot(self):
        g = graph_from_pairs(
            3, [(0, 1), (1, 0), (1, 2), (2, 1)], undirected=True
        )
        X = degree_bucket_features(g, 2)
        # degrees [1, 2, 1] -> (d-1) % 2 = [0, 1, 0]
        assert np.array_equal(X, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


class TestCompileAndForward:
    def test_compiled_shapes(self):
        task = make_synthetic_task(TINY_TASK)
        compiled = compile_task(task, tiny_config(variant="mrs_gcn"))
        total = sum(g.n for g in task.graphs)
        assert len(compiled.rel_ops) == 3
        assert compiled.pool.shape == (6, total)
        assert compiled.X.shape[0] == total

    @pytest.mark.parametrize("variant", ["gcn", "mrs_gcn", "mrs_sage"])
    def test_cached_transposes_are_csr(self, variant):
        compiled = compile_task(make_synthetic_task(TINY_TASK), tiny_config(variant=variant))
        assert len(compiled.rel_ops_t) == len(compiled.rel_ops)
        for op, op_t in zip(compiled.rel_ops, compiled.rel_ops_t):
            assert sparse.isspmatrix_csr(op_t)
            assert np.array_equal(op_t.toarray(), op.T.toarray())
        for mat in (*compiled.rel_ops, *compiled.rel_ops_t, compiled.pool):
            for arr in (mat.data, mat.indices, mat.indptr):
                assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "variant, ordering",
        [("gcn", "degree"), ("sage", "degree"), ("mrs_gcn", "degree"),
         ("mrs_sage", "ppr"), ("mrs_gcn", "features"), ("mrs_gcn", "random")],
    )
    def test_rel_ops_equal_the_per_graph_block_diagonal_build(self, variant, ordering):
        # The build the union replaced: each graph's own operators, glued
        # block after block.
        task = make_synthetic_task(TINY_TASK)
        config = tiny_config(variant=variant, ordering=ordering)
        per_graph = [
            variant_operators(g, variant, ordering, task.params.seed + idx, X)
            for idx, (g, X) in enumerate(zip(task.graphs, task.features))
        ]
        want = [sparse.block_diag(ops, format="csr") for ops in zip(*per_graph)]
        got = compile_task(task, config).rel_ops
        assert len(got) == len(want)
        for op, ref in zip(got, want):
            assert_same_csr(op, ref)
            for arr in (op.data, op.indices, op.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    def test_base_variant_single_operator(self):
        task = make_synthetic_task(TINY_TASK)
        compiled = compile_task(task, tiny_config(variant="sage"))
        assert len(compiled.rel_ops) == 1
        sage = init_model(tiny_config(variant="sage"), task.params.buckets).layer_self
        gcn = init_model(tiny_config(variant="gcn"), task.params.buckets).layer_self
        assert len(sage) == len(gcn) == tiny_config().layers
        assert all(isinstance(t, ad.Tensor) for t in sage)
        assert all(t is None for t in gcn)

    def test_zero_head_zero_prediction(self):
        task = make_synthetic_task(TINY_TASK)
        config = tiny_config()
        compiled = compile_task(task, config)
        params = init_model(config, task.params.buckets)
        params.head.value[:] = 0.0
        pred = forward(params, compiled, config)
        assert np.all(pred.value == 0.0)

    def test_residual_carries_input_past_zero_messages(self):
        task = make_synthetic_task(TINY_TASK)
        config = tiny_config(residual=True)
        compiled = compile_task(task, config)
        params = init_model(config, task.params.buckets)
        for rel in params.layer_rel:
            for w in rel:
                w.value[:] = 0.0
        pred = forward(params, compiled, config)
        embed = compiled.X @ params.embed.value
        expected = (compiled.pool @ embed) @ params.head.value
        assert np.abs(pred.value - expected).max() < 1e-12

    def test_jk_max_of_identical_states_matches_plain(self):
        task = make_synthetic_task(TINY_TASK)
        preds = []
        for jk in ("none", "max"):
            config = tiny_config(residual=True, jk=jk)
            compiled = compile_task(task, config)
            params = init_model(config, task.params.buckets)
            for rel in params.layer_rel:
                for w in rel:
                    w.value[:] = 0.0
            preds.append(forward(params, compiled, config).value)
        assert np.array_equal(preds[0], preds[1])


class TestTiedReduction:
    def test_forward_matches_base_to_tolerance(self):
        task = make_synthetic_task(TINY_TASK)
        base_cfg = tiny_config(variant="gcn", seed=3)
        mrs_cfg = tiny_config(variant="mrs_gcn", seed=3)
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
        assert np.abs(base_out.value - mrs_out.value).max() <= 1e-10

    def test_tied_initial_losses_equal(self):
        task = make_synthetic_task(TINY_TASK)
        base_cfg = tiny_config(variant="gcn", epochs=0)
        base = train(task, base_cfg)
        mrs_cfg = tiny_config(variant="mrs_gcn", epochs=0)
        compiled = compile_task(task, mrs_cfg)
        tied = forward(tied_split_init(base_cfg, task.params.buckets), compiled, mrs_cfg)
        mrs_loss = float(ad.mae_loss(tied, compiled.targets).value)
        assert mrs_loss == pytest.approx(base.trace[0], abs=1e-10)


class TestTrain:
    def test_zero_epochs_initial_loss_only(self):
        result = train(make_synthetic_task(TINY_TASK), tiny_config(epochs=0))
        assert len(result.trace) == 1

    def test_trace_length(self):
        result = train(make_synthetic_task(TINY_TASK), tiny_config(epochs=3))
        assert len(result.trace) == 4

    def test_bitwise_deterministic(self):
        task = make_synthetic_task(TINY_TASK)
        r1 = train(task, tiny_config(epochs=3))
        r2 = train(task, tiny_config(epochs=3))
        assert r1.trace == r2.trace

    def test_divergence_reported(self):
        task = make_synthetic_task(TINY_TASK)
        with np.errstate(all="ignore"):
            result = train(task, tiny_config(epochs=20, lr=1e200))
        assert result.diverged
        assert not np.isfinite(result.final_mae)

    def test_loss_decreases_from_start(self):
        task = make_synthetic_task(TINY_TASK)
        result = train(task, tiny_config(epochs=40, lr=0.1))
        assert result.final_mae < result.trace[0]


class TestFusedTrainingMatchesChain:
    """Training through ad.relation_sum gives the same trace, bit for bit,
    as training with each layer built from the chain it replaced."""

    # The four training configurations pinned in tests/golden/ (two layers), as
    # (variant, ordering, residual, jk, task seed).
    GOLDEN_CONFIGS = [
        ("gcn", "degree", True, "none", 0),
        ("sage", "random", False, "cat", 1),
        ("gcn", "ppr", False, "max", 0),
        ("sage", "features", True, "max", 0),
    ]

    @pytest.mark.parametrize("variant,ordering,residual,jk,task_seed", GOLDEN_CONFIGS)
    def test_trace_equals_chained_forward(
        self, monkeypatch, variant, ordering, residual, jk, task_seed
    ):
        task = make_synthetic_task(TaskParams(count=16, seed=task_seed))
        for v in (variant, "mrs_" + variant):
            config = ModelConfig(
                variant=v, layers=2, width=32, ordering=ordering, residual=residual,
                jk=jk, epochs=20,
            )
            fused = train(task, config).trace
            with monkeypatch.context() as m:
                m.setattr(
                    ad, "relation_sum",
                    lambda h, ops, ops_t, ws, self_w: chained_relation_sum(h, ops, ws, self_w),
                )
                chained = train(task, config).trace
            assert len(fused) == 21
            assert fused == chained


class TestCompare:
    def test_structure_and_determinism(self):
        task = make_synthetic_task(TINY_TASK)
        pairs = compare_base_vs_split(task, tiny_config(epochs=2), seeds=(0, 1))
        assert [
            (base.config.variant, base.config.seed, split.config.variant, split.config.seed)
            for base, split in pairs
        ] == [("gcn", 0, "mrs_gcn", 0), ("gcn", 1, "mrs_gcn", 1)]
        for result in (result for pair in pairs for result in pair):
            assert isinstance(result, TrainResult)
            assert len(result.trace) == 3 and result.final_mae == result.trace[-1]
        again = compare_base_vs_split(task, tiny_config(epochs=2), seeds=(0, 1))
        assert pairs == again

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(variant="gcn", epochs=5),
            dict(variant="mrs_sage", ordering="random", residual=True, jk="cat", epochs=4),
            # At this step base seed 1 trains on and the other five runs diverge.
            dict(variant="gcn", epochs=20, lr=1e100),
        ],
    )
    def test_equals_sequential_train(self, monkeypatch, workers, overrides):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: workers)
        task = make_synthetic_task(TINY_TASK)
        config = tiny_config(**overrides)
        pairs = compare_base_vs_split(task, config, seeds=(0, 1, 2))
        base = config.variant.removeprefix("mrs_")
        want = [
            (train(task, replace(config, variant=base, seed=seed)),
             train(task, replace(config, variant="mrs_" + base, seed=seed)))
            for seed in (0, 1, 2)
        ]
        got_runs = [run for pair in pairs for run in pair]
        want_runs = [run for pair in want for run in pair]
        assert [(r.config, r.diverged) for r in got_runs] == [
            (r.config, r.diverged) for r in want_runs
        ]
        assert [np.array(r.trace).tobytes() for r in got_runs] == [
            np.array(r.trace).tobytes() for r in want_runs
        ]
        if overrides.get("lr") == 1e100:
            assert [r.diverged for r in got_runs] == [True, True, False, True, True, True]

    def test_runs_with_a_wrapped_train(self, monkeypatch):
        # train is looked up by name when the runs are mapped, so a wrapper
        # bound over that name runs on the workers too; forked workers
        # inherit it, and no function is pickled.
        task = make_synthetic_task(TINY_TASK)
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
        alone = compare_base_vs_split(task, tiny_config(), seeds=(0, 1))
        real = trainer.train

        def wrapped(task, config):
            return real(task, config)

        monkeypatch.setattr(trainer, "train", wrapped)
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
        assert compare_base_vs_split(task, tiny_config(), seeds=(0, 1)) == alone


class TestModelGradients:
    def test_full_model_finite_differences(self):
        # One representative config per variant; the wide sweep lives in the
        # acceptance suite.
        task = make_synthetic_task(TaskParams(count=3, n_min=4, n_max=6, seed=5))
        for variant in ("gcn", "sage", "mrs_gcn", "mrs_sage"):
            config = ModelConfig(
                variant=variant, layers=2, width=3, activation="sigmoid", seed=1
            )
            compiled = compile_task(task, config)
            params = init_model(config, task.params.buckets)
            tensors = params.all_tensors()

            def loss():
                return ad.mae_loss(
                    forward(params, compiled, config), compiled.targets
                )

            base = loss()
            ad.backward(base)
            grads = [t.grad.copy() if t.grad is not None else None for t in tensors]
            step = 1e-6
            for t, g in zip(tensors, grads):
                if g is None:
                    continue
                flat = t.value.ravel()
                idx = int(np.argmax(np.abs(g)))
                orig = flat[idx]
                flat[idx] = orig + step
                hi = float(loss().value)
                flat[idx] = orig - step
                lo = float(loss().value)
                flat[idx] = orig
                numeric = (hi - lo) / (2 * step)
                assert numeric == pytest.approx(g.ravel()[idx], rel=1e-4, abs=1e-8)
