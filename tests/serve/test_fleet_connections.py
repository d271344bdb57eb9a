"""Fleet tenants keep their stage connections between jobs.

Each gateway job is one ``run_stream`` on the tenant's coordinator;
the coordinator's task connections persist across those streams, so a
tenant dials each stage once, ``net_task_connections_opened`` stays
flat on ``GET /metrics`` while jobs flow, and a worker killed and
rebound between two jobs costs the next job a re-dial, not a dead
letter or a restart.
"""

import time
import urllib.request

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.net import WorkerServer
from repro.observability import NULL_TRACER, Observability
from repro.planner.plan import ClusterSpec
from repro.serve import Job
from repro.serve.gateway import ServeGateway, build_serve_model
from repro.serve.tenants import TenantRuntime

KEY_SIZE = 128
SEED = 29


@pytest.fixture(scope="module")
def served():
    return build_serve_model("tiny")


def _config():
    return RuntimeConfig(key_size=KEY_SIZE, seed=SEED).with_serve(
        queue_capacity=8, tenant_quota=4,
    )


def _sample(input_shape, index=0):
    return np.random.default_rng(SEED + index).uniform(0, 1, input_shape)


def _counter_total(obs, name):
    return sum(counter.value for _labels, counter
               in obs.registry.find("counter", name))


class TestWorkerKilledBetweenJobs:
    @pytest.mark.parametrize("victim", [0, 1], ids=["model", "data"])
    def test_next_job_redials_without_dead_letters(self, served,
                                                   victim):
        model, decimals, input_shape = served
        fleet = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in fleet]
        obs = Observability(enabled=True, tracer=NULL_TRACER)
        runtime = TenantRuntime(
            "t", model, decimals, _config(),
            ClusterSpec.homogeneous(1, 1, 2), mode="fleet",
            worker_addresses=addresses, obs=obs,
        )
        rebound = None
        try:
            x = _sample(input_shape).tolist()
            first, = runtime.run([Job("t", x)])
            fleet[victim].stop(abort=True)
            rebound = WorkerServer(port=addresses[victim][1])
            rebound.start()
            second, = runtime.run([Job("t", x)])
            assert second == first
            handles = runtime._coordinator.handles
            assert all(handle.restarts == 0 for handle in handles)
            assert _counter_total(obs, "stream_dead_letters") == 0
            assert _counter_total(obs, "stream_restarts") == 0
        finally:
            runtime.close()
            for server in fleet + [rebound]:
                if server is not None:
                    server.stop(abort=True)


def _scrape(gateway, name):
    host, port = gateway.address
    with urllib.request.urlopen(f"http://{host}:{port}/metrics",
                                timeout=10) as reply:
        text = reply.read().decode("utf-8")
    return sum(float(line.rpartition(" ")[2])
               for line in text.splitlines()
               if line.startswith(name + "{") or line.startswith(name + " "))


def _run_one(gateway, tenant, sample):
    job = gateway.submit(tenant, sample)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and not job.terminal:
        time.sleep(0.01)
    assert job.state == "done", job.to_dict()
    return job


class TestGatewayMetrics:
    def test_task_connections_stay_flat_while_jobs_flow(self, served):
        model, decimals, input_shape = served
        fleet = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in fleet]
        try:
            with ServeGateway(model, decimals, _config(), mode="fleet",
                              worker_addresses=addresses) as gateway:
                for tenant in ("a", "b"):
                    _run_one(gateway, tenant, _sample(input_shape))
                stages = len(gateway.registry.get("a").plan.stages)
                opened = _scrape(gateway,
                                 "net_task_connections_opened")
                assert opened == 2 * stages
                for index in range(4):
                    for tenant in ("a", "b"):
                        _run_one(gateway, tenant,
                                 _sample(input_shape, index + 1))
                assert _scrape(gateway,
                               "net_task_connections_opened") == opened
        finally:
            for server in fleet:
                server.stop(abort=True)
