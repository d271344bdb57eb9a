"""Compressed execution through the session layer.

The tentpole contract: when a served model is pruned/clustered, the
model provider builds one :class:`SparseMatvecPlan` per compressible
layer at session setup and the linear stages run the engine's
compressed kernels — **bit-identically** to the dense path on the
same weights, in both scalar and lane-packed form.  The planner's
cost profile must see those stages as cheaper.
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.costs import CostModel
from repro.crypto.sparse import (
    SparseMatvecPlan,
    WORTHWHILE_MIN_SPARSITY,
    plan_if_worthwhile,
)
from repro.nn.rewrite import prune_model
from repro.planner.profiling import profile_primitive_times
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.scaling.clustering import cluster_model


class TestPlanIfWorthwhile:
    def test_sparse_matrix_gets_a_plan(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(-1000, 1000, size=(16, 16))
        weights[np.abs(weights) < 700] = 0  # ~70% zeros
        plan = plan_if_worthwhile(weights)
        assert plan is not None
        assert plan.sparsity >= WORTHWHILE_MIN_SPARSITY

    def test_clustered_matrix_gets_a_plan(self):
        rng = np.random.default_rng(1)
        weights = rng.choice([-3, -1, 2, 5], size=(32, 16))
        plan = plan_if_worthwhile(weights)
        assert plan is not None
        assert plan.distinct_values <= 4

    def test_incompressible_matrix_stays_dense(self):
        """A dense matrix of mostly-distinct values must NOT be
        rerouted away from the thread-partitioned dense path."""
        rng = np.random.default_rng(2)
        weights = rng.permutation(np.arange(1, 257)).reshape(16, 16)
        assert plan_if_worthwhile(weights) is None

    def test_all_zero_matrix_gets_a_plan(self):
        plan = plan_if_worthwhile(np.zeros((4, 4), dtype=np.int64))
        assert plan is not None
        assert plan.nnz == 0


@pytest.fixture(scope="module")
def compressed_breast(trained_breast, breast_dataset):
    pruned, _ = prune_model(
        trained_breast, 0.7,
        inputs=breast_dataset.test_x, labels=breast_dataset.test_y,
    )
    model, _ = cluster_model(
        pruned, 8, seed=0,
        inputs=breast_dataset.test_x, labels=breast_dataset.test_y,
    )
    return model


def _providers(model, config):
    return (ModelProvider(model, decimals=3, config=config),
            DataProvider(value_decimals=3, config=config))


def _disable_plans(model_provider):
    for stage_plan in model_provider._linear_plans.values():
        stage_plan.matvec_plans[:] = \
            [None] * len(stage_plan.matvec_plans)


class TestSessionSetupPlans:
    def test_compressed_model_builds_plans_once_per_layer(
            self, compressed_breast):
        config = RuntimeConfig(key_size=128, seed=9)
        model_provider, _ = _providers(compressed_breast, config)
        plans = [
            plan
            for stage_plan in model_provider._linear_plans.values()
            for plan in stage_plan.matvec_plans
        ]
        assert plans, "no linear stages found"
        assert any(p is not None for p in plans)
        for stage_plan in model_provider._linear_plans.values():
            assert len(stage_plan.matvec_plans) == \
                len(stage_plan.affines)
            for plan, affine in zip(stage_plan.matvec_plans,
                                    stage_plan.affines):
                if plan is not None:
                    assert plan == SparseMatvecPlan.from_dense(
                        affine.weight
                    )

    def test_compression_stats_mirror_the_plans(
            self, compressed_breast, trained_breast):
        config = RuntimeConfig(key_size=128, seed=9)
        model_provider, _ = _providers(compressed_breast, config)
        stats = model_provider.compression_stats()
        assert len(stats) == len(model_provider.stages)
        planned = [s for s in stats if s is not None]
        assert planned
        for entry in planned:
            assert 0.0 < entry.density < 1.0

    def test_planner_charges_compressed_stages_less(
            self, compressed_breast):
        config = RuntimeConfig(key_size=128, seed=9)
        model_provider, _ = _providers(compressed_breast, config)
        cost_model = CostModel.reference()
        dense_times = profile_primitive_times(
            model_provider.stages, cost_model, 3
        )
        compressed_times = profile_primitive_times(
            model_provider.stages, cost_model, 3,
            compression=model_provider.compression_stats(),
        )
        stats = model_provider.compression_stats()
        assert any(
            c < d for c, d, s in zip(compressed_times, dense_times,
                                     stats)
            if s is not None
        )


class TestBitIdentity:
    def test_planned_path_equals_dense_path_scalar(
            self, compressed_breast, breast_dataset):
        """The compressed kernels are an *execution strategy*, not an
        approximation: same weights with plans disabled must produce
        byte-identical probabilities."""
        config = RuntimeConfig(key_size=128, seed=17)
        planned = InferenceSession(
            *_providers(compressed_breast, config)
        )
        dense_mp, dense_dp = _providers(compressed_breast, config)
        _disable_plans(dense_mp)
        dense = InferenceSession(dense_mp, dense_dp)
        for sample in breast_dataset.test_x[:2]:
            expected = dense.run(sample).probabilities
            got = planned.run(sample).probabilities
            assert np.array_equal(got, expected)

    def test_requests_never_reach_a_warm_table(
            self, compressed_breast, breast_dataset):
        """Every request (and every layer of it) arrives as freshly
        randomized ciphertexts, so protocol traffic never hits the
        engine's cross-call table cache: the warm-table loop that
        ``bench --compress`` times is a benchmark-only state."""
        config = RuntimeConfig(key_size=128, seed=17)
        model_provider, data_provider = _providers(compressed_breast,
                                                   config)
        session = InferenceSession(model_provider, data_provider)
        for sample in breast_dataset.test_x[:3]:
            session.run(sample)
        cache = model_provider.engine.power_cache
        assert cache.misses > 0
        assert cache.hits == 0

    def test_planned_path_equals_dense_path_packed(
            self, compressed_breast, breast_dataset):
        config = RuntimeConfig(key_size=256, seed=17, pack_lanes=2)
        planned = InferenceSession(
            *_providers(compressed_breast, config)
        )
        dense_mp, dense_dp = _providers(compressed_breast, config)
        _disable_plans(dense_mp)
        dense = InferenceSession(dense_mp, dense_dp)
        batch = np.asarray(breast_dataset.test_x[:2])
        expected = dense.run_batch(batch)
        got = planned.run_batch(batch)
        assert len(got) == len(expected) == 2
        for a, b in zip(got, expected):
            assert np.array_equal(a.probabilities, b.probabilities)
