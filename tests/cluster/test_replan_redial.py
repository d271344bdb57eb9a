"""A re-plan between two streams re-dials every stage connection.

Task connections persist across streams, but never across a spec
change: after :meth:`ElasticCoordinator.apply_plan` the next stream
retires the old proxies and dials fresh ones, so each worker sees one
hello under the new spec and rebuilds its pinned session exactly once.
"""

import numpy as np

from repro.cluster import ElasticCoordinator
from repro.net import WorkerServer
from repro.net.wire import ROLE_DATA, ROLE_MODEL
from repro.observability import NULL_TRACER, Observability
from repro.planner.allocation import allocate_even, allocate_load_balanced
from repro.planner.plan import ClusterSpec
from repro.stream import RetryPolicy


def _rebuilt(obs):
    return sum(counter.value for _labels, counter in obs.registry.find(
        "counter", "net_worker_session_rebuilt"))


def _opened(obs):
    return sum(counter.value for _labels, counter in obs.registry.find(
        "counter", "net_task_connections_opened"))


class TestReplanRedial:
    def test_apply_plan_between_streams_redials_once_per_stage(
            self, make_providers, worker_farm, cluster_inputs,
            reference_results):
        worker_obs = [Observability(enabled=True, tracer=NULL_TRACER)
                      for _ in range(2)]
        _servers, addresses = worker_farm(
            *(WorkerServer(obs=obs) for obs in worker_obs))
        obs = Observability(enabled=True, tracer=NULL_TRACER)
        model_provider, data_provider = make_providers(obs=obs)
        cluster = ClusterSpec.homogeneous(1, 1, 4)
        plan = allocate_even(model_provider.stages, cluster).plan
        reference = reference_results(plan)
        coordinator = ElasticCoordinator(
            model_provider, data_provider, plan, addresses,
            retry_policy=RetryPolicy(max_retries=4, base_delay=0.02),
            membership=False,
        )
        try:
            coordinator.connect()
            first = coordinator.run_stream(cluster_inputs)
            coordinator.run_stream(cluster_inputs)
            num_stages = len(plan.stages)
            assert _opened(obs) == num_stages
            old_specs = dict(coordinator._specs)
            old_connections = [
                connection for handle in coordinator.handles
                for connection in handle.task_connections()]

            # Skew the first two stages so the re-plan changes thread
            # counts on both roles (and so both spec digests).
            times = [10.0 if index < 2 else 1.0
                     for index in range(num_stages)]
            coordinator.apply_plan(allocate_load_balanced(
                model_provider.stages, times, cluster,
                method="water_filling").plan)
            for role in (ROLE_MODEL, ROLE_DATA):
                assert coordinator._specs[role] != old_specs[role]
            assert [_rebuilt(o) for o in worker_obs] == [0, 0]

            second = coordinator.run_stream(cluster_inputs)
            assert all(connection.closed
                       for connection in old_connections)
            held = [connection for handle in coordinator.handles
                    for connection in handle.task_connections()]
            assert len(held) == num_stages
            assert not any(connection.closed for connection in held)
            assert _opened(obs) == 2 * num_stages
            assert [_rebuilt(o) for o in worker_obs] == [1, 1]
            coordinator.run_stream(cluster_inputs)
            assert _opened(obs) == 2 * num_stages
            assert [_rebuilt(o) for o in worker_obs] == [1, 1]
        finally:
            coordinator.close()
        for stats in (first, second):
            assert not stats.dead_letters
            for result in stats.results:
                assert np.array_equal(result.probabilities,
                                      reference[result.request_id])
