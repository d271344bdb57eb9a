"""Stream executors carrying lane-packed items.

The per-stage executors must accept a :class:`PackedEncryptedTensor`
in a :class:`StreamItem` and keep it packed across obfuscation,
affines, decrypt/activations, and re-encryption — with results equal
to running each lane through the unpacked path.
"""

import random

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.crypto.encoding import LanePacker
from repro.crypto.sparse import SparseMatvecPlan
from repro.crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from repro.obfuscation.obfuscator import Obfuscator
from repro.protocol import DataProvider, ModelProvider
from repro.protocol.stages import LinearStage, LinearStagePlan
from repro.scaling.fixed_point import scale_to_int, \
    scaled_affine_for_layer
from repro.stream.executors import (
    LinearStageExecutor,
    NonLinearStageExecutor,
    StreamItem,
)


@pytest.fixture()
def parties(trained_breast):
    config = RuntimeConfig(key_size=256, seed=41, pack_lanes=3)
    model_provider = ModelProvider(trained_breast, decimals=3,
                                   config=config)
    data_provider = DataProvider(value_decimals=3, config=config)
    model_provider.register_public_key(data_provider.public_key)
    return model_provider, data_provider


def packed_input(data_provider, model_provider, xs):
    packer = model_provider.lane_packer(len(xs))
    assert packer is not None
    return data_provider.encrypt_input_batch(np.asarray(xs), packer)


def linear_stage(model_provider, affine, obfuscator, final):
    """A one-affine linear stage on the model provider's engine."""
    plan = LinearStagePlan(
        0, [affine], [SparseMatvecPlan.from_dense(affine.weight)])
    return LinearStage(
        plan, obfuscator, model_provider.engine, random.Random(0),
        model_provider.fold, final,
    )


class TestPackedLinearExecutor:
    def test_matches_per_sample_affine(self, parties):
        model_provider, data_provider = parties
        layer = model_provider.stages[0].primitives[0].layer
        affine = scaled_affine_for_layer(layer, (30,), 3)
        executor = LinearStageExecutor(
            # final: skip obfuscation so we can decrypt directly
            linear_stage(model_provider, affine, Obfuscator(5),
                         final=True),
            threads=2,
        )
        xs = np.random.default_rng(1).standard_normal((3, 30))
        tensor = packed_input(data_provider, model_provider, xs)
        item = executor.process(StreamItem(0, tensor))
        assert isinstance(item.tensor, PackedEncryptedTensor)
        decrypted = item.tensor.decrypt(data_provider._private_key)
        for row, x in zip(decrypted, xs):
            expected = affine.apply_plain(scale_to_int(x, 3),
                                          input_exponent=3)
            assert np.array_equal(row, expected)

    def test_obfuscation_round_trip(self, parties):
        """Obfuscate + deobfuscate is the identity on packed cells —
        the permutation moves whole ciphertexts, lanes ride along."""
        model_provider, data_provider = parties
        layer = model_provider.stages[0].primitives[0].layer
        affine = scaled_affine_for_layer(layer, (30,), 3)
        obfuscator = Obfuscator(6)
        executor = LinearStageExecutor(
            linear_stage(model_provider, affine, obfuscator, final=False),
            threads=1,
        )
        xs = np.zeros((2, 30))
        tensor = packed_input(data_provider, model_provider, xs)
        item = executor.process(StreamItem(0, tensor))
        assert isinstance(item.tensor, PackedEncryptedTensor)
        assert item.obfuscation_round == 0
        assert obfuscator.rounds_started == 1


class TestPackedNonLinearExecutor:
    def _packer(self, data_provider, lanes=2, mag_bits=24):
        return LanePacker(data_provider.public_key, lanes=lanes,
                          mag_bits=mag_bits)

    def test_relu_then_reencrypt(self, parties):
        _, data_provider = parties
        values = np.array([[1.5, -2.0, 0.5, -0.1],
                           [-1.5, 2.0, -0.5, 0.1]])
        packer = self._packer(data_provider)
        tensor = PackedEncryptedTensor.encrypt_batch(
            scale_to_int(values, 3), packer, exponent=3,
        )
        executor = NonLinearStageExecutor(
            data_provider.nonlinear_stage(["relu"], final=False),
            threads=2,
        )
        item = executor.process(StreamItem(0, tensor,
                                           obfuscation_round=9))
        assert isinstance(item.tensor, PackedEncryptedTensor)
        out = item.tensor.decrypt_float(data_provider._private_key)
        assert np.allclose(out, np.maximum(values, 0.0))
        assert item.obfuscation_round == 9

    def test_final_softmax_rows(self, parties):
        """The final packed stage returns one probability row per
        lane, softmaxed per row (not across the whole flat block)."""
        _, data_provider = parties
        values = np.array([[1.0, 2.0, 3.0], [5.0, 4.0, 3.0]])
        packer = self._packer(data_provider)
        tensor = PackedEncryptedTensor.encrypt_batch(
            scale_to_int(values, 3), packer, exponent=3,
        )
        executor = NonLinearStageExecutor(
            data_provider.nonlinear_stage(["softmax"], final=True),
            threads=1,
        )
        item = executor.process(StreamItem(0, tensor))
        assert item.tensor is None
        assert item.result.shape == (2, 3)
        assert np.allclose(item.result.sum(axis=1), 1.0)
        assert item.result[0].argmax() == 2
        assert item.result[1].argmax() == 0

    def test_packed_matches_unpacked_lanewise(self, parties):
        _, data_provider = parties
        values = np.array([[0.25, -0.75], [1.25, -0.25]])
        packer = self._packer(data_provider)
        packed = PackedEncryptedTensor.encrypt_batch(
            scale_to_int(values, 3), packer, exponent=3,
        )
        executor = NonLinearStageExecutor(
            data_provider.nonlinear_stage(["sigmoid"], final=False),
            threads=1,
        )
        packed_out = executor.process(StreamItem(0, packed)) \
            .tensor.decrypt_float(data_provider._private_key)
        for lane, row in enumerate(values):
            single = EncryptedTensor.encrypt(
                scale_to_int(row, 3), data_provider.public_key,
                random.Random(5), exponent=3,
            )
            lane_out = executor.process(StreamItem(0, single)) \
                .tensor.decrypt_float(data_provider._private_key)
            assert np.allclose(packed_out[lane], lane_out)
