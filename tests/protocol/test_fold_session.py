"""The output fold end to end: every runtime hands the data provider a
linear stage's outputs folded ``k`` to a ciphertext, and nothing the
parties compute or observe changes.

The reference is the unfolded protocol — the same providers with
``FoldedTensor.fold`` patched to hand the N ciphertexts over as they
are, so the data provider decrypts them one by one.
"""

import random

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.crypto.serialize import (
    any_tensor_to_bytes,
    ciphertext_bytes,
    frame_bytes,
)
from repro.crypto.tensor import EncryptedTensor, FoldedTensor
from repro.errors import EncodingError
from repro.net import Coordinator, WorkerServer
from repro.nn.layers import FullyConnected, ReLU, SoftMax
from repro.nn.model import Sequential
from repro.planner.plan import ClusterSpec, Plan, StageAssignment
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.scaling.fixed_point import scale_to_int, scaled_affine_for_layer
from repro.scaling.headroom import FOLD_INPUT_BOUND, analyze_headroom
from repro.stream import Pipeline
from repro.stream.executors import NonLinearStageExecutor, StreamItem

KEY_SIZE = 256


def providers(model, decimals=3, key_size=KEY_SIZE, seed=31):
    config = RuntimeConfig(key_size=key_size, seed=seed)
    return (ModelProvider(model, decimals=decimals, config=config),
            DataProvider(value_decimals=decimals, config=config))


@pytest.fixture()
def unfolded(monkeypatch):
    """Run the protocol without the fold (the reference path)."""
    def hand_over(cls, tensor, packer, engine=None):
        return tensor

    def activate():
        monkeypatch.setattr(FoldedTensor, "fold", classmethod(hand_over))

    return activate


def session_outputs(model, xs, decimals=3, key_size=KEY_SIZE):
    model_provider, data_provider = providers(model, decimals, key_size)
    session = InferenceSession(model_provider, data_provider)
    outcomes = [session.run(x) for x in xs]
    return ([o.probabilities for o in outcomes],
            data_provider.observed_plaintexts, outcomes)


def fixed_plan(stages, threads):
    """Linear stages on the model server, non-linear ones on the data
    server, ``threads`` each."""
    cluster = ClusterSpec.homogeneous(1, 1, threads * len(stages))
    return Plan(cluster, tuple(stages), tuple(
        StageAssignment(stage.index, 0 if stage.index % 2 == 0 else 1,
                        threads)
        for stage in stages
    ), use_tensor_partitioning=True)


class TestSessionBitIdentity:
    def test_outputs_and_observed_views_match_unfolded(
            self, trained_breast, breast_dataset, unfolded):
        xs = list(breast_dataset.test_x[:4])
        folded_probs, folded_seen, outcomes = session_outputs(
            trained_breast, xs)
        model_provider, _ = providers(trained_breast)
        assert model_provider.fold.lanes == 7   # 36-bit lanes, 256 bits
        unfolded()
        plain_probs, plain_seen, _ = session_outputs(trained_breast, xs)
        for mine, theirs in zip(folded_probs, plain_probs):
            assert np.array_equal(mine, theirs)
        # The data provider sees exactly what it saw unfolded: N
        # permuted values per stage, no padding lanes.
        assert len(folded_seen) == len(plain_seen)
        for mine, theirs in zip(folded_seen, plain_seen):
            assert mine.shape == theirs.shape
            assert np.array_equal(mine, theirs)
        assert [seen.shape for seen in folded_seen[:3]] == \
            [(64,), (32,), (2,)]
        # Model-to-data messages carry the folded ciphertexts.
        cells = [m.elements for m in outcomes[0].transcript.messages
                 if m.sender == "model"]
        assert cells == [10, 5, 1]

    def test_observed_values_are_permuted(self, trained_breast,
                                          breast_dataset):
        """Folding happens after the permutation: the intermediate the
        data provider decrypts is the obfuscated one, not the raw
        linear output."""
        model_provider, data_provider = providers(trained_breast)
        session = InferenceSession(model_provider, data_provider)
        x = breast_dataset.test_x[0]
        session.run(x)
        seen = data_provider.observed_plaintexts[0]
        layer = model_provider.stages[0].primitives[0].layer
        affine = scaled_affine_for_layer(layer, (30,), 3)
        raw = np.array([int(v) / 10 ** 6 for v in affine.apply_plain(
            scale_to_int(x, 3), input_exponent=3)])
        assert np.array_equal(np.sort(seen), np.sort(raw))
        assert not np.array_equal(seen, raw)

    def test_frames_are_exact(self, trained_breast, breast_dataset):
        model_provider, data_provider = providers(trained_breast)
        model_provider.register_public_key(data_provider.public_key)
        tensor = data_provider.encrypt_input(breast_dataset.test_x[0])
        folded, _ = model_provider.process_linear_stage(0, tensor, None,
                                                        False)
        assert isinstance(folded, FoldedTensor)
        assert len(any_tensor_to_bytes(folded)) == frame_bytes(folded)
        # Same 19-byte overhead as a rank-1 scalar frame.
        assert frame_bytes(folded) - 10 * ciphertext_bytes(KEY_SIZE) \
            == frame_bytes(tensor) - 30 * ciphertext_bytes(KEY_SIZE)


class TestThreadedStream:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_stream_matches_unfolded_session(
            self, trained_breast, breast_dataset, unfolded, threads):
        xs = list(breast_dataset.test_x[:4])
        model_provider, data_provider = providers(trained_breast)
        plan = fixed_plan(model_provider.stages, threads)
        stats = Pipeline(model_provider, data_provider,
                         plan).run_stream(xs)
        assert not stats.dead_letters
        unfolded()
        expected, _, _ = session_outputs(trained_breast, xs)
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  expected[result.request_id])


class TestNonLinearExecutorOnFoldedInput:
    @pytest.mark.parametrize("threads", [2, 3, 5])
    def test_threads_reencrypt_all_values(self, threads):
        """Threads split on cell boundaries but re-encrypt every value
        the cells held — N, not ceil(N/k)."""
        model_provider, data_provider = providers(
            _peak_model(), decimals=2, key_size=128)
        packer = model_provider.fold.packer(data_provider.public_key)
        rng = np.random.default_rng(threads)
        values = rng.uniform(-3, 3, 23)
        tensor = EncryptedTensor.encrypt(
            scale_to_int(values, 2), data_provider.public_key,
            random.Random(1), exponent=2)
        folded = FoldedTensor.fold(tensor, packer)
        assert len(folded.cells()) == -(-23 // packer.lanes)
        executor = NonLinearStageExecutor(
            1, ["relu"], data_provider._private_key, 2, threads=threads,
            rng=random.Random(2), final=False,
            engine=data_provider.engine,
        )
        item = executor.process(StreamItem(0, folded,
                                           obfuscation_round=4))
        assert isinstance(item.tensor, EncryptedTensor)
        assert item.tensor.size == 23
        out = item.tensor.decrypt_float(data_provider._private_key)
        assert np.array_equal(out, np.maximum(scale_to_int(values, 2)
                                              / 100, 0))
        assert item.obfuscation_round == 4


class TestTcp:
    def test_tcp_matches_unfolded_session(self, tiny_conv_model,
                                          unfolded):
        config = RuntimeConfig(key_size=128, seed=78).with_net(
            heartbeat_interval=0.2, heartbeat_timeout=3.0)
        model_provider = ModelProvider(tiny_conv_model, decimals=2,
                                       config=config)
        data_provider = DataProvider(value_decimals=2, config=config)
        assert model_provider.fold.lanes > 1
        plan = fixed_plan(model_provider.stages, 2)
        rng = np.random.default_rng(3)
        xs = [rng.uniform(0, 1, (1, 8, 8)) for _ in range(3)]
        servers = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in servers]
        try:
            with Coordinator(model_provider, data_provider, plan,
                             addresses) as coordinator:
                stats = coordinator.run_stream(xs)
        finally:
            for server in servers:
                server.stop(abort=True)
        assert not stats.dead_letters
        unfolded()
        expected, _, _ = session_outputs(tiny_conv_model, xs,
                                         decimals=2, key_size=128)
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  expected[result.request_id])


def _peak_model():
    """Three inputs -> four outputs whose first row's L1 reaches the
    headroom analysis's peak bound exactly at unit input, and a small
    second layer, so the peak sits at the folded stage-0 output."""
    model = Sequential((3,))
    first = FullyConnected(3, 4, rng=np.random.default_rng(0))
    first.weight[:] = [[0.5, 0.25, 0.25], [-0.5, -0.25, -0.25],
                       [0.25, 0.0, 0.0], [0.0, -0.5, 0.0]]
    first.bias[:] = 0.0
    model.add(first)
    model.add(ReLU())
    second = FullyConnected(4, 2, rng=np.random.default_rng(1))
    second.weight[:] = 0.1
    second.bias[:] = 0.0
    model.add(second)
    model.add(SoftMax())
    return model


class TestInputRange:
    def test_peak_is_at_the_folded_stage(self):
        report = analyze_headroom(_peak_model(), 2, 128)
        assert report.peak_bound == report.bound_by_stage[0] == 10 ** 4

    def test_bound_input_stays_exact(self, unfolded):
        x = np.full(3, FOLD_INPUT_BOUND)
        probs, seen, _ = session_outputs(_peak_model(), [x], decimals=2,
                                         key_size=128)
        # Stage 0's first output is 16x the peak bound: 1600 * 100.
        assert np.abs(seen[0]).max() * 10 ** 4 == 16 * 10 ** 4
        model_provider, _ = providers(_peak_model(), 2, 128)
        assert model_provider.fold.lanes > 1
        assert 16 * 10 ** 4 < 2 ** (model_provider.fold.mag_bits
                                    + model_provider.fold.guard_bits)
        unfolded()
        plain_probs, plain_seen, _ = session_outputs(
            _peak_model(), [x], decimals=2, key_size=128)
        assert np.array_equal(probs[0], plain_probs[0])
        assert np.array_equal(seen[0], plain_seen[0])

    @pytest.mark.parametrize("value", [FOLD_INPUT_BOUND + 0.01,
                                       -FOLD_INPUT_BOUND - 0.01,
                                       float("nan")])
    def test_input_beyond_bound_rejected_before_encryption(self, value):
        model_provider, data_provider = providers(_peak_model(), 2, 128)
        session = InferenceSession(model_provider, data_provider)
        pooled = len(data_provider.engine.pool)
        x = np.array([1.0, value, 0.5])
        with pytest.raises(EncodingError, match="certified bound"):
            session.run(x)
        assert model_provider.observed == []
        assert len(data_provider.engine.pool) == pooled
        assert data_provider.observed_plaintexts == []

    def test_stream_refuses_before_starting(self):
        model_provider, data_provider = providers(_peak_model(), 2, 128)
        plan = fixed_plan(model_provider.stages, 1)
        pipeline = Pipeline(model_provider, data_provider, plan)
        pooled = len(data_provider.engine.pool)
        with pytest.raises(EncodingError):
            pipeline.run_stream([np.zeros(3), np.full(3, 17.0)])
        assert len(data_provider.engine.pool) == pooled
        assert data_provider.observed_plaintexts == []
