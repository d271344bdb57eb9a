"""Shared fixtures for the elastic-fleet tests (docs/ELASTIC.md).

Mirrors ``tests/net/conftest.py`` — the same tiny conv model and a
128-bit key — but every coordinator here is an
:class:`~repro.cluster.ElasticCoordinator` with observability on, so
the tests can read the per-worker labelled gauges and histograms that
prove a re-plan moved work onto a joined member.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ElasticCoordinator
from repro.config import RuntimeConfig
from repro.net import WorkerServer
from repro.nn import model_zoo
from repro.observability import NULL_TRACER, Observability
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.stream import Pipeline, RetryPolicy


@pytest.fixture(scope="session")
def cluster_model():
    return model_zoo.conv_fc(
        (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8, seed=3,
        name="tiny-conv",
    )


@pytest.fixture(scope="session")
def cluster_config():
    return RuntimeConfig(
        key_size=128, seed=78,
        net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
        net_reconnect_attempts=4, net_reconnect_base_delay=0.02,
        net_reconnect_max_delay=0.2,
    )


@pytest.fixture(scope="session")
def cluster_inputs():
    rng = np.random.default_rng(1)
    return [rng.uniform(0, 1, (1, 8, 8)) for _ in range(6)]


@pytest.fixture()
def make_providers(cluster_model, cluster_config):
    """Fresh provider pair per call (in-process runs mutate obfuscator
    state, so reference and distributed runs each get their own)."""

    def build(config=None, obs=None):
        config = config or cluster_config
        return (
            ModelProvider(cluster_model, decimals=2, config=config,
                          obs=obs),
            DataProvider(value_decimals=2, config=config, obs=obs),
        )

    return build


@pytest.fixture()
def reference_results(make_providers, cluster_inputs):
    """request_id -> probabilities from the in-process pipeline."""

    def build(plan):
        model_provider, data_provider = make_providers()
        stats = Pipeline(model_provider, data_provider,
                         plan).run_stream(cluster_inputs)
        assert not stats.dead_letters
        return {r.request_id: r.probabilities for r in stats.results}

    return build


@pytest.fixture()
def worker_farm():
    """Start in-thread workers; guarantees teardown stops them all."""
    started = []

    def launch(*servers):
        addresses = []
        for server in servers:
            started.append(server)
            addresses.append(server.start())
        return list(servers), addresses

    yield launch
    for server in started:
        server.stop(abort=True)


@pytest.fixture()
def make_elastic(make_providers, worker_farm, cluster_config):
    """Build a connected 2-worker elastic fleet; teardown closes it.

    Returns ``(coordinator, servers, plan)`` — one model worker and
    one data worker, two cores each (the 8-stage tiny model needs
    capacity >= 4 per role for the even baseline).
    """
    coordinators = []

    def build(config=None, membership=True):
        config = config or cluster_config
        obs = Observability(enabled=True, tracer=NULL_TRACER)
        model_provider, data_provider = make_providers(config, obs)
        cluster = ClusterSpec.homogeneous(1, 1, 2)
        plan = allocate_even(model_provider.stages, cluster).plan
        servers, addresses = worker_farm(WorkerServer(),
                                         WorkerServer())
        coordinator = ElasticCoordinator(
            model_provider, data_provider, plan, addresses,
            retry_policy=RetryPolicy(max_retries=4, base_delay=0.02),
            membership=membership,
        )
        coordinator.connect()
        coordinators.append(coordinator)
        return coordinator, servers, plan

    yield build
    for coordinator in coordinators:
        coordinator.close()
