"""Packed lanes certify the same inputs as the fold.

Linear-stage outputs reach the data provider folded in lanes sized for
``max|x| <= FOLD_INPUT_BOUND`` (16), and lane-packed batches are sized
with the same guard bits: every input the scalar path accepts decodes
exactly through packed lanes too, and an input beyond the bound is
refused before anything is encrypted.
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import EncodingError
from repro.nn.layers import FullyConnected, ReLU, SoftMax
from repro.nn.model import Sequential
from repro.observability import Observability
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.scaling.headroom import (
    FOLD_GUARD_BITS,
    FOLD_INPUT_BOUND,
    analyze_headroom,
    plan_lane_packing,
)
from repro.serve import build_serve_model

LANES = 4


def make_session(model, key_size=256, pack_lanes=0, obs=None):
    config = RuntimeConfig(key_size=key_size, seed=5,
                           pack_lanes=pack_lanes)
    return InferenceSession(
        ModelProvider(model, decimals=3, config=config, obs=obs),
        DataProvider(value_decimals=3, config=config, obs=obs),
    )


class TestPackedInputBound:
    def test_run_batch_refuses_beyond_the_bound(self, trained_breast,
                                                breast_dataset):
        obs = Observability(enabled=True)
        session = make_session(trained_breast, pack_lanes=LANES,
                               obs=obs)
        batch = np.array(breast_dataset.test_x[:LANES], dtype=float)
        batch[1, 0] = FOLD_INPUT_BOUND + 0.5
        with pytest.raises(EncodingError):
            session.run_batch(batch)
        encrypted = sum(counter.value for _labels, counter
                        in obs.registry.find("counter",
                                             "paillier_packed_ops"))
        assert encrypted == 0

    def test_worst_case_input_decodes_like_run(self):
        """``|x| = 16`` everywhere, each sample's signs aligned with
        another row of the first layer's weights, on a model whose
        peak magnitude is that layer's: the first products reach 16
        times the unit-input peak, which only lanes with
        :data:`FOLD_GUARD_BITS` of guard hold.  Packed and scalar
        agree bit for bit."""
        model = _first_layer_peak_model()
        weight = model.layers[0].weight
        rows = np.argsort(-np.abs(weight).sum(axis=1))[:LANES]
        batch = FOLD_INPUT_BOUND * np.where(weight[rows] >= 0, 1.0, -1.0)
        packed = make_session(model, pack_lanes=LANES)
        scalar = make_session(model)
        assert packed.model_provider.plan_lane_packing(LANES).admitted
        for got, x in zip(packed.run_batch(batch), batch):
            want = scalar.run(x)
            assert got.prediction == want.prediction
            assert np.array_equal(got.probabilities, want.probabilities)


def _first_layer_peak_model() -> Sequential:
    """A 2FC model whose second layer's weights are small, so the
    headroom analysis's peak bound is the first layer's."""
    rng = np.random.default_rng(3)
    model = Sequential((12,), name="first-layer-peak")
    model.add(FullyConnected(12, 6, rng=rng))
    model.add(ReLU())
    model.add(FullyConnected(6, 3, rng=rng))
    model.add(SoftMax())
    model.layers[2].weight *= 0.05
    report = analyze_headroom(model, 3, 256)
    assert report.peak_bound == report.bound_by_stage[0]
    return model


class TestLaneCapacity:
    """Lane counts the default (fold) guard bits admit."""

    def test_guard_bits_are_the_fold_guard(self, trained_breast):
        plan = plan_lane_packing(trained_breast, 3, 320, lanes=8)
        assert plan.guard_bits == FOLD_GUARD_BITS

    def test_tiny_at_256_bits_admits_nine_lanes(self):
        model, decimals, _shape = build_serve_model("tiny")
        assert plan_lane_packing(model, decimals, 256, 9).admitted
        assert not plan_lane_packing(model, decimals, 256, 10).admitted

    def test_breast_at_320_bits_admits_eight_lanes(self,
                                                   trained_breast):
        plan = plan_lane_packing(trained_breast, 3, 320, lanes=8)
        assert plan.admitted
        assert plan.lane_bits == plan.mag_bits + FOLD_GUARD_BITS + 1

    def test_three_lanes_at_128_bits(self, trained_breast):
        assert plan_lane_packing(trained_breast, 3, 128, 3).admitted
