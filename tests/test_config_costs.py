"""Unit tests for RuntimeConfig and the cost model."""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG, PAPER_KEY_SIZE, RuntimeConfig
from repro.costs import CostModel
from repro.errors import ConfigurationError


class TestRuntimeConfig:
    def test_defaults_valid(self):
        assert DEFAULT_CONFIG.key_size >= 64
        assert PAPER_KEY_SIZE == 2048

    def test_key_size_validation(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(key_size=32)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(key_size=129)

    def test_with_key_size(self):
        config = dataclasses.replace(RuntimeConfig(), key_size=512)
        assert config.key_size == 512
        assert config.seed == RuntimeConfig().seed
        # replace() runs the same validation as the constructor.
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, key_size=63)

    def test_with_seed(self):
        assert dataclasses.replace(RuntimeConfig(), seed=7).seed == 7

    def test_one_way_to_set_a_field(self):
        """Fields are set by name; the only builders left are the two
        the benchmark harness calls."""
        names = {field.name for field in dataclasses.fields(RuntimeConfig)}
        assert len(names) == 38
        assert not names & {
            "hyperthreading", "net_connect_timeout",
            "net_handshake_timeout", "net_breaker_threshold",
            "net_breaker_cooldown", "cluster_rebalance_interval",
            "cluster_join_timeout", "compress_accuracy_budget",
        }
        builders = {name for name in dir(RuntimeConfig)
                    if name.startswith("with_")}
        assert builders == {"with_observability", "with_pack_lanes"}

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.key_size = 1024  # type: ignore[misc]


class TestCostModel:
    def test_reference_profile_shape(self):
        """Fig. 1 anchors: enc/dec in milliseconds per element,
        arithmetic in microseconds."""
        model = CostModel.reference()
        assert model.key_size == 2048
        assert model.encrypt > 100 * model.ciphertext_add
        assert model.decrypt > 100 * model.ciphertext_add
        assert model.ciphertext_bytes == 512

    def test_ciphertext_mul_grows_with_bits(self):
        model = CostModel.reference()
        assert model.ciphertext_mul(40) > model.ciphertext_mul(4)

    def test_scalar_bits_for_decimals(self):
        model = CostModel.reference()
        assert model.scalar_bits_for_decimals(0) >= 1
        assert model.scalar_bits_for_decimals(6) > \
            model.scalar_bits_for_decimals(0)

    def test_transfer_time(self):
        model = CostModel.reference()
        encrypted = model.transfer_time(1000, encrypted=True)
        plain = model.transfer_time(1000, encrypted=False)
        assert encrypted > plain > 0

    def test_scaled(self):
        model = CostModel.reference()
        double = model.scaled(2.0)
        assert double.encrypt == pytest.approx(2 * model.encrypt)
        # network untouched
        assert double.network_latency == model.network_latency

    def test_scaled_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel.reference().scaled(0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(
                key_size=128, encrypt=-1, decrypt=0,
                ciphertext_add=0, ciphertext_mul_base=0,
                ciphertext_mul_per_bit=0, plain_op=0,
                permute_element=0, serialize_element=0,
                network_latency=0, network_bandwidth=1,
                ciphertext_bytes=32,
            )

    def test_calibrate_produces_positive_costs(self):
        model = CostModel.calibrate(128, samples=12)
        assert model.encrypt > 0
        assert model.decrypt > 0
        assert model.ciphertext_add > 0
        assert model.ciphertext_mul(20) > 0
        assert model.permute_element > 0

    def test_matvec_setup_is_charged_per_input(self):
        """The calibrated profile prices the matvec kernel's per-input
        digit table; the reference profile has no such term, so its
        stage costs are what they always were."""
        from dataclasses import replace

        from repro.nn import model_zoo
        from repro.planner.primitive import model_stages
        from repro.planner.profiling import profile_primitive_times

        reference = CostModel.reference()
        assert reference.ciphertext_mul_setup == 0.0
        assert CostModel.calibrate(128, samples=12) \
            .ciphertext_mul_setup >= 0.0
        priced = replace(reference, ciphertext_mul_setup=1.0e-3)
        assert priced.scaled(2.0).ciphertext_mul_setup \
            == pytest.approx(2.0e-3)
        stages = model_stages(model_zoo.build_model("breast", seed=0))
        for stage, before, after in zip(
            stages,
            profile_primitive_times(stages, reference, 3),
            profile_primitive_times(stages, priced, 3),
        ):
            extra = after - before
            if stage.kind.value == "linear":
                assert extra == pytest.approx(
                    stage.op_counts().input_size * 1.0e-3)
            else:
                assert extra == 0.0

    def test_calibrate_scales_with_key_size(self):
        small = CostModel.calibrate(128, samples=12)
        large = CostModel.calibrate(512, samples=12)
        assert large.encrypt > small.encrypt
        assert large.decrypt > small.decrypt

    def test_calibrate_sample_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel.calibrate(128, samples=2)
