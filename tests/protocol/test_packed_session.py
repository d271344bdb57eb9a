"""End-to-end tests for lane-packed batched inference.

``InferenceSession.run_batch`` with ``config.pack_lanes > 1`` must
produce exactly the same predictions and probabilities as the
per-sample protocol, fall back (with counted reasons) when the lane
headroom analysis refuses, and chunk oversized batches.
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import ConfigurationError
from repro.observability import Observability
from repro.protocol import DataProvider, InferenceSession, ModelProvider


def make_session(model, decimals=3, key_size=256, seed=77,
                 pack_lanes=0, obs=None):
    config = RuntimeConfig(key_size=key_size, seed=seed,
                           pack_lanes=pack_lanes)
    model_provider = ModelProvider(model, decimals=decimals,
                                   config=config, obs=obs)
    data_provider = DataProvider(value_decimals=decimals, config=config,
                                 obs=obs)
    return InferenceSession(model_provider, data_provider)


class TestPackedEquivalence:
    def test_run_batch_matches_per_sample(self, trained_breast,
                                          breast_dataset):
        samples = breast_dataset.test_x[:5]
        plain = make_session(trained_breast)
        packed = make_session(trained_breast, pack_lanes=4)
        reference = [plain.run(x) for x in samples]
        outcomes = packed.run_batch(samples)
        assert len(outcomes) == len(samples)
        for got, want in zip(outcomes, reference):
            assert got.prediction == want.prediction
            assert np.array_equal(got.probabilities,
                                  want.probabilities)

    def test_oversized_batch_chunks(self, trained_breast,
                                    breast_dataset):
        """6 samples at pack_lanes=4 ride as a 4-lane and a 2-lane
        chunk; every outcome still matches the per-sample path."""
        samples = breast_dataset.test_x[:6]
        plain = make_session(trained_breast)
        packed = make_session(trained_breast, pack_lanes=4)
        outcomes = packed.run_batch(samples)
        assert len(outcomes) == 6
        for got, x in zip(outcomes, samples):
            assert got.prediction == plain.run(x).prediction

    def test_packed_request_counted(self, trained_breast,
                                    breast_dataset):
        obs = Observability(enabled=True)
        session = make_session(trained_breast, pack_lanes=4, obs=obs)
        session.run_batch(breast_dataset.test_x[:4])
        counter = obs.registry.counter("packing_requests",
                                       result="packed")
        assert counter.value == 1

    def test_plan_admitted_for_breast_model(self, trained_breast):
        config = RuntimeConfig(key_size=256, pack_lanes=4)
        provider = ModelProvider(trained_breast, decimals=3,
                                 config=config)
        plan = provider.plan_lane_packing(4)
        assert plan.admitted
        assert plan.lanes == 4
        assert plan.capacity >= 4


class TestPackedFallback:
    def test_capacity_fallback_counted(self, trained_breast,
                                       breast_dataset):
        """More lanes than the key can carry: per-sample fallback, with
        the reason recorded on the packing_fallbacks counter.  (A
        128-bit key fits ~6 breast-model lanes, so a 10-sample group
        is refused outright rather than chunked smaller.)"""
        obs = Observability(enabled=True)
        session = make_session(trained_breast, key_size=128,
                               pack_lanes=64, obs=obs)
        outcomes = session.run_batch(breast_dataset.test_x[:10])
        assert len(outcomes) == 10
        assert obs.registry.counter(
            "packing_requests", result="fallback").value == 1
        assert obs.registry.counter(
            "packing_fallbacks", reason="capacity").value == 1

    def test_pack_lanes_zero_stays_per_sample(self, trained_breast,
                                              breast_dataset):
        obs = Observability(enabled=True)
        session = make_session(trained_breast, pack_lanes=0, obs=obs)
        outcomes = session.run_batch(breast_dataset.test_x[:2])
        assert len(outcomes) == 2
        assert obs.registry.counter(
            "packing_requests", result="packed").value == 0
        assert obs.registry.counter(
            "packing_requests", result="fallback").value == 0

    def test_single_sample_batch_stays_per_sample(self, trained_breast,
                                                  breast_dataset):
        obs = Observability(enabled=True)
        session = make_session(trained_breast, pack_lanes=4, obs=obs)
        outcomes = session.run_batch(breast_dataset.test_x[:1])
        assert len(outcomes) == 1
        assert obs.registry.counter(
            "packing_requests", result="packed").value == 0


class TestConfigKnobs:
    def test_with_pack_lanes(self):
        config = RuntimeConfig(key_size=128)
        assert config.pack_lanes == 0
        assert config.with_pack_lanes(8).pack_lanes == 8
        with pytest.raises(ConfigurationError):
            RuntimeConfig(key_size=128, pack_lanes=-1)
