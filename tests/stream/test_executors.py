"""Unit tests for the per-stage stream executors."""

import random

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.crypto.sparse import SparseMatvecPlan
from repro.crypto.tensor import EncryptedTensor
from repro.errors import ProtocolError, StreamError
from repro.obfuscation.obfuscator import Obfuscator
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.protocol.stages import LinearStage, LinearStagePlan
from repro.scaling.fixed_point import scale_to_int, \
    scaled_affine_for_layer
from repro.stream.executors import (
    LinearStageExecutor,
    NonLinearStageExecutor,
    StreamItem,
    build_executors,
)
from repro.nn.layers import FullyConnected


@pytest.fixture()
def parties(trained_breast):
    config = RuntimeConfig(key_size=128, seed=41)
    model_provider = ModelProvider(trained_breast, decimals=3,
                                   config=config)
    data_provider = DataProvider(value_decimals=3, config=config)
    model_provider.register_public_key(data_provider.public_key)
    return model_provider, data_provider


def linear_stage(model_provider, affine, obfuscator, final):
    """A one-affine linear stage on the model provider's engine."""
    plan = LinearStagePlan(
        0, [affine], [SparseMatvecPlan.from_dense(affine.weight)])
    return LinearStage(
        plan, obfuscator, model_provider.engine, random.Random(0),
        model_provider.bound_bits[0], final,
    )


class TestLinearExecutor:
    def test_matches_scaled_affine(self, parties):
        """One linear stage through the executor == the plain scaled
        affine evaluated on the same integers."""
        model_provider, data_provider = parties
        layer = model_provider.stages[0].primitives[0].layer
        affine = scaled_affine_for_layer(layer, (30,), 3)
        executor = LinearStageExecutor(
            # final: skip obfuscation so we can decrypt directly
            linear_stage(model_provider, affine, Obfuscator(5),
                         final=True),
        )
        x = np.random.default_rng(1).standard_normal(30)
        x_int = scale_to_int(x, 3)
        tensor = data_provider.encrypt_input(x)
        item = executor.process(StreamItem(0, tensor))
        decrypted = item.tensor.decrypt(data_provider._private_key)
        expected = affine.apply_plain(x_int, input_exponent=3)
        assert np.array_equal(decrypted, expected)

    def test_obfuscates_when_not_final(self, parties):
        model_provider, data_provider = parties
        layer = model_provider.stages[0].primitives[0].layer
        affine = scaled_affine_for_layer(layer, (30,), 3)
        obfuscator = Obfuscator(6)
        executor = LinearStageExecutor(
            linear_stage(model_provider, affine, obfuscator, final=False),
        )
        tensor = data_provider.encrypt_input(np.zeros(30))
        item = executor.process(StreamItem(0, tensor))
        assert item.obfuscation_round == 0
        assert obfuscator.rounds_started == 1

    def test_empty_item_rejected(self, parties):
        model_provider, _ = parties
        layer = model_provider.stages[0].primitives[0].layer
        affine = scaled_affine_for_layer(layer, (30,), 3)
        executor = LinearStageExecutor(
            linear_stage(model_provider, affine, Obfuscator(7),
                         final=False),
        )
        with pytest.raises(StreamError):
            executor.process(StreamItem(0, None))


class TestNonLinearExecutor:
    def test_relu_then_reencrypt(self, parties):
        _, data_provider = parties
        rng = random.Random(2)
        values = np.array([1.5, -2.0, 0.5, -0.1])
        tensor = EncryptedTensor.encrypt(
            scale_to_int(values, 3), data_provider.public_key, rng,
            exponent=3,
        )
        executor = NonLinearStageExecutor(
            data_provider.nonlinear_stage(["relu"], final=False),
        )
        item = executor.process(StreamItem(0, tensor,
                                           obfuscation_round=9))
        out = item.tensor.decrypt_float(data_provider._private_key)
        assert np.allclose(out, [1.5, 0.0, 0.5, 0.0])
        # the obfuscation round id is carried through untouched
        assert item.obfuscation_round == 9

    def test_final_softmax_returns_result(self, parties):
        _, data_provider = parties
        rng = random.Random(3)
        values = np.array([1.0, 2.0, 3.0])
        tensor = EncryptedTensor.encrypt(
            scale_to_int(values, 3), data_provider.public_key, rng,
            exponent=3,
        )
        executor = NonLinearStageExecutor(
            data_provider.nonlinear_stage(["softmax"], final=True),
        )
        item = executor.process(StreamItem(0, tensor))
        assert item.tensor is None
        assert item.result is not None
        assert item.result.sum() == pytest.approx(1.0)
        assert item.result.argmax() == 2

    def test_softmax_rejected_mid_pipeline(self, parties):
        _, data_provider = parties
        with pytest.raises(ProtocolError):
            NonLinearStageExecutor(
                data_provider.nonlinear_stage(["softmax"], final=False),
            )


class TestBuildExecutors:
    def test_one_executor_per_stage(self, parties):
        model_provider, data_provider = parties
        cluster = ClusterSpec.homogeneous(1, 1, 2)
        plan = allocate_even(model_provider.stages, cluster).plan
        executors = build_executors(model_provider, data_provider,
                                    plan)
        assert len(executors) == len(model_provider.stages)
        kinds = [type(e).__name__ for e in executors]
        assert kinds == [
            "LinearStageExecutor", "NonLinearStageExecutor",
        ] * 3

    def test_final_flags(self, parties):
        model_provider, data_provider = parties
        cluster = ClusterSpec.homogeneous(1, 1, 2)
        plan = allocate_even(model_provider.stages, cluster).plan
        executors = build_executors(model_provider, data_provider,
                                    plan)
        assert executors[-1].stage.final      # final softmax
        assert executors[-2].stage.final      # final linear stage
        assert not executors[0].stage.final
        assert not executors[1].stage.final
