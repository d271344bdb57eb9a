"""Elastic fleet serving: grow and shrink the shared worker fleet
while tenants keep computing bit-identical answers."""

import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import ServeError
from repro.net import WorkerServer
from repro.serve.gateway import ServeGateway, build_serve_model

KEY_SIZE = 128
SEED = 67


def _config():
    return RuntimeConfig(key_size=KEY_SIZE, seed=SEED).with_serve(
        queue_capacity=8, tenant_quota=4,
    )


def _run_one(gateway, tenant, input_shape):
    sample = np.random.default_rng(SEED).uniform(0, 1, input_shape)
    job = gateway.submit(tenant, sample)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and not job.terminal:
        time.sleep(0.02)
    assert job.state == "done", job.to_dict()
    return job.to_dict()["result"]["probabilities"]


@pytest.fixture(scope="module")
def served():
    return build_serve_model("tiny")


class TestFleetGrowShrink:
    def test_grow_and_shrink_keep_answers_bit_identical(self, served):
        """The full elastic arc over one gateway: baseline answer,
        grow a third worker (existing tenant keeps computing, new
        tenant sees it from birth), then shrink an original — every
        phase returns the identical probability vector."""
        model, decimals, input_shape = served
        fleet = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in fleet]
        spare = WorkerServer()
        spare_address = spare.start()
        try:
            with ServeGateway(model, decimals, _config(),
                              mode="fleet",
                              worker_addresses=addresses) as gateway:
                baseline = _run_one(gateway, "t", input_shape)

                server_id = gateway.grow_fleet(spare_address,
                                               "model", cores=4)
                assert server_id == 2
                # The existing tenant survived the live admit...
                assert _run_one(gateway, "t", input_shape) \
                    == baseline
                # ...and a tenant created after the grow is born
                # onto the three-worker cluster.
                assert _run_one(gateway, "late", input_shape) \
                    == baseline
                assert len(gateway.registry.cluster.servers) == 3

                gateway.shrink_fleet(0)
                assert _run_one(gateway, "t", input_shape) \
                    == baseline
                # A tenant born after the shrink never dials the
                # departed worker.
                assert _run_one(gateway, "post", input_shape) \
                    == baseline
                size = gateway.obs.registry.gauge(
                    "serve_fleet_size").value
                assert size == 2
        finally:
            for server in fleet + [spare]:
                server.stop(abort=True)

    def test_shrink_refusals(self, served):
        model, decimals, input_shape = served
        fleet = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in fleet]
        spare = WorkerServer()
        spare_address = spare.start()
        try:
            with ServeGateway(model, decimals, _config(),
                              mode="fleet",
                              worker_addresses=addresses) as gateway:
                # Last-of-role: with one model and one data worker,
                # neither may drain.
                with pytest.raises(ServeError, match="last"):
                    gateway.shrink_fleet(0)
                with pytest.raises(ServeError, match="last"):
                    gateway.shrink_fleet(1)
                # Unknown id.
                with pytest.raises(ServeError, match="no fleet"):
                    gateway.shrink_fleet(9)
                # Double drain.
                gateway.grow_fleet(spare_address, "model", cores=4)
                gateway.shrink_fleet(0)
                with pytest.raises(ServeError, match="already"):
                    gateway.shrink_fleet(0)
                # The fleet still serves after the refusals.
                assert len(_run_one(gateway, "t", input_shape)) == 3
        finally:
            for server in fleet + [spare]:
                server.stop(abort=True)

    def test_grow_refused_in_local_mode(self, served):
        model, decimals, _ = served
        with ServeGateway(model, decimals, _config()) as gateway:
            with pytest.raises(ServeError, match="fleet mode"):
                gateway.grow_fleet(("127.0.0.1", 1), "model")
            with pytest.raises(ServeError, match="fleet mode"):
                gateway.shrink_fleet(0)
