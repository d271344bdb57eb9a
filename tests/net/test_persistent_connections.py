"""Task connections outlive streams: one dial per stage per coordinator.

A coordinator keeps its stage proxies, and the handshaken task
connection behind each, across ``run_stream`` calls.  These tests pin
the lifecycle: N streams dial each stage once, the handles never
accumulate closed connections, a worker that dies and heals between
streams costs one re-dial per stage it serves, and ``close()`` releases
everything.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.net import Coordinator, WorkerServer
from repro.observability import NULL_TRACER, Observability
from repro.planner.plan import ClusterSpec
from repro.stream import RetryPolicy


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(f"timed out waiting for {message}")


def _opened(obs):
    """``net_task_connections_opened`` per worker label."""
    return {labels["worker"]: counter.value for labels, counter
            in obs.registry.find("counter",
                                 "net_task_connections_opened")}


def _stages_served(coordinator):
    """server id -> number of plan stages assigned to it."""
    served = {}
    for assignment in coordinator.plan.assignments:
        served[assignment.server_id] = \
            served.get(assignment.server_id, 0) + 1
    return served


def _assert_one_open_connection_per_stage(coordinator):
    served = _stages_served(coordinator)
    for handle in coordinator.handles:
        connections = handle.task_connections()
        assert not [c for c in connections if c.closed], (
            f"{handle.describe()} still holds closed connections"
        )
        assert len(connections) == served.get(handle.server_id, 0)


@pytest.fixture()
def fleet(make_providers, make_plan, reference_results, worker_farm):
    """A connected one-model/one-data coordinator with observability
    on, plus the servers and the in-process reference answers."""
    plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
    reference = reference_results(plan)
    servers, addresses = worker_farm(WorkerServer(), WorkerServer())
    obs = Observability(enabled=True, tracer=NULL_TRACER)
    model_provider, data_provider = make_providers()
    coordinator = Coordinator(
        model_provider, data_provider, plan, addresses,
        retry_policy=RetryPolicy(max_retries=6, base_delay=0.05),
        obs=obs,
    )
    coordinator.connect()
    yield coordinator, servers, addresses, reference, obs
    coordinator.close()


def _run_checked(coordinator, inputs, reference):
    stats = coordinator.run_stream(inputs)
    assert not stats.dead_letters
    assert stats.total_restarts == 0
    for result in stats.results:
        assert np.array_equal(result.probabilities,
                              reference[result.request_id])
    return stats


class TestConnectionsOutliveStreams:
    @pytest.mark.parametrize("streams", [1, 4])
    def test_n_streams_dial_each_stage_once(self, fleet, net_inputs,
                                            streams):
        coordinator, _servers, _addresses, reference, obs = fleet
        for index in range(streams):
            _run_checked(coordinator, net_inputs[index:index + 1],
                         {0: reference[index]})
        num_stages = len(coordinator.plan.stages)
        opened = _opened(obs)
        assert sum(opened.values()) == num_stages
        served = _stages_served(coordinator)
        assert opened == {str(server): float(count)
                          for server, count in served.items()}
        _assert_one_open_connection_per_stage(coordinator)

    def test_proxies_are_shared_by_every_stream(self, fleet):
        coordinator = fleet[0]
        first = coordinator.executors()
        assert coordinator.executors() == first

    def test_concurrent_streams_share_one_connection_per_stage(
            self, fleet, net_inputs):
        """Streams that overlap on one coordinator share its proxies:
        the first uses race on the lazy dial, and exactly one
        connection per stage must come out of it."""
        coordinator, _servers, _addresses, reference, obs = fleet
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        errors, results = [], []

        def stream():
            try:
                results.append(coordinator.run_stream(net_inputs[:3]))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=stream) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for stats in results:
            assert not stats.dead_letters
            for result in stats.results:
                assert np.array_equal(result.probabilities,
                                      reference[result.request_id])
        assert sum(_opened(obs).values()) == len(coordinator.plan.stages)
        _assert_one_open_connection_per_stage(coordinator)

    def test_close_releases_every_task_connection(self, fleet,
                                                  net_inputs):
        coordinator = fleet[0]
        _run_checked(coordinator, net_inputs[:2], fleet[3])
        held = [connection for handle in coordinator.handles
                for connection in handle.task_connections()]
        assert held
        coordinator.close()
        assert all(connection.closed for connection in held)
        assert all(not handle.task_connections()
                   for handle in coordinator.handles)


class TestHealBetweenStreams:
    def test_killed_worker_heals_and_holds_no_dead_connections(
            self, fleet, net_inputs, worker_farm):
        """Kill the model worker between streams and rebind its port:
        the slot heals by reconnect, the next stream re-dials only the
        killed worker's stages, and no handle keeps a closed
        connection or a stale-generation channel."""
        coordinator, servers, addresses, reference, obs = fleet
        for _ in range(3):
            _run_checked(coordinator, net_inputs, reference)
        _assert_one_open_connection_per_stage(coordinator)
        before = _opened(obs)

        victim = coordinator.handles[0]
        generation = victim.generation
        servers[0].stop(abort=True)
        worker_farm(WorkerServer(port=addresses[0][1]))
        _wait_until(lambda: victim.alive
                    and victim.generation > generation,
                    message="the killed worker to heal")

        _run_checked(coordinator, net_inputs, reference)
        _run_checked(coordinator, net_inputs, reference)
        _assert_one_open_connection_per_stage(coordinator)
        assert victim.restarts == 0
        served = _stages_served(coordinator)
        after = _opened(obs)
        assert after["0"] == before["0"] + served[0]
        assert after["1"] == before["1"]
        for executor in coordinator.executors():
            for server_id, channel in executor._channels.items():
                assert channel.generation \
                    == coordinator.handles[server_id].generation
