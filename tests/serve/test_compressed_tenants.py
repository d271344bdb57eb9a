"""Tenant-level compression: the ``compress_*`` serving knobs.

With ``compress_enabled`` the registry derives one pruned+clustered
model at startup (deterministic under the master seed) and serves it
to every opted-in tenant; ``serve_compress_tenants`` narrows the
opt-in to an explicit allowlist.  End-to-end jobs must still complete
— in local mode and over a fleet, where the tenant's sparse plans
cross the handshake and the workers run the same compressed kernels.
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.net import WorkerServer
from repro.serve.gateway import ServeGateway, build_serve_model
from repro.serve.tenants import compress_served_model

KEY_SIZE = 128
SEED = 53


def _config(**compress):
    config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED).with_serve(
        queue_capacity=8, tenant_quota=4,
    )
    return config.with_compress(**compress) if compress else config


def _run_one(gateway, tenant, input_shape):
    import time

    sample = np.random.default_rng(SEED).uniform(0, 1, input_shape)
    job = gateway.submit(tenant, sample)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and not job.terminal:
        time.sleep(0.02)
    assert job.state == "done", job.to_dict()
    return job.to_dict()["result"]["probabilities"]


class TestCompressServedModel:
    def test_deterministic_under_the_master_seed(self):
        model, _, _ = build_serve_model("tiny")
        config = _config(enabled=True)
        first, report_a = compress_served_model(model, config)
        second, report_b = compress_served_model(model, config)
        assert report_a == report_b
        for layer_a, layer_b in zip(first.layers, second.layers):
            weight_a = getattr(layer_a, "weight", None)
            if weight_a is not None:
                assert np.array_equal(weight_a, layer_b.weight)

    def test_report_shape(self):
        model, _, _ = build_serve_model("tiny")
        _, report = compress_served_model(model, _config(enabled=True))
        assert report["target_sparsity"] == \
            pytest.approx(_config(enabled=True).compress_sparsity)
        assert report["applied_sparsity"] > 0
        assert report["clusters"] >= 1
        # Untrained tiny model has no evaluation data: accuracies are
        # structural Nones, not fabricated numbers.
        assert report["baseline_accuracy"] is None
        assert report["compressed_accuracy"] is None


class TestCompressedLocalServing:
    def test_all_tenants_get_the_compressed_model(self):
        model, decimals, input_shape = build_serve_model("tiny")
        config = _config(enabled=True, sparsity=0.6, clusters=4)
        with ServeGateway(model, decimals, config) as gateway:
            assert gateway.registry.compression is not None
            assert gateway.registry.compression["applied_sparsity"] \
                == pytest.approx(0.6)
            probabilities = _run_one(gateway, "anyone", input_shape)
            assert len(probabilities) == 3
            runtime = gateway.registry.get("anyone")
            assert runtime.model_provider._model \
                is gateway.registry._compressed_model

    def test_allowlist_narrows_the_opt_in(self):
        model, decimals, input_shape = build_serve_model("tiny")
        config = _config(enabled=True, tenants=("vip",))
        with ServeGateway(model, decimals, config) as gateway:
            _run_one(gateway, "vip", input_shape)
            _run_one(gateway, "walkin", input_shape)
            vip = gateway.registry.get("vip")
            walkin = gateway.registry.get("walkin")
            assert vip.model_provider._model \
                is gateway.registry._compressed_model
            assert walkin.model_provider._model is model

    def test_disabled_by_default(self):
        model, decimals, _ = build_serve_model("tiny")
        with ServeGateway(model, decimals, _config()) as gateway:
            assert gateway.registry.compression is None
            assert gateway.registry._compressed_model is None


class TestCompressedFleetServing:
    def test_compressed_tenant_runs_over_tcp_workers(self):
        """The compressed tenant's plans ride the handshake spec; the
        fleet workers rebuild them and the job completes with the
        same result the local-mode compressed gateway computes."""
        model, decimals, input_shape = build_serve_model("tiny")
        config = _config(enabled=True, sparsity=0.6, clusters=4)
        with ServeGateway(model, decimals, config) as local:
            expected = _run_one(local, "t", input_shape)
        fleet = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in fleet]
        try:
            with ServeGateway(model, decimals, config, mode="fleet",
                              worker_addresses=addresses) as gateway:
                probabilities = _run_one(gateway, "t", input_shape)
                assert probabilities == expected
        finally:
            for server in fleet:
                server.stop(abort=True)
