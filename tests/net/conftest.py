"""Shared fixtures for the networked-runtime tests.

Built around a tiny untrained conv model (no training cost) with a
128-bit key: small enough that a full distributed stream runs in well
under a second, so worker-kill tests can stage deterministic mid-batch
deaths via :class:`DyingWorker` rather than wall-clock timers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.net import WorkerServer
from repro.nn import model_zoo
from repro.planner.allocation import allocate_even
from repro.protocol import DataProvider, ModelProvider
from repro.stream import Pipeline


class DyingWorker(WorkerServer):
    """A worker that crashes (hard-closes every connection) after
    serving ``die_after`` tasks — the deterministic stand-in for
    kill -9 mid-batch."""

    def __init__(self, die_after: int, **kwargs):
        super().__init__(**kwargs)
        self.die_after = die_after
        self.tasks_done = 0

    def _run_task(self, session, envelope):
        self.tasks_done += 1
        if self.tasks_done > self.die_after:
            self.stop(abort=True)
        return super()._run_task(session, envelope)


@pytest.fixture(scope="session")
def net_model():
    return model_zoo.conv_fc(
        (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8, seed=3,
        name="tiny-conv",
    )


@pytest.fixture(scope="session")
def net_config():
    # Lax heartbeat timeout: GIL-bound crypto work can starve the
    # monitor thread for over a second, and the executor path already
    # detects closed connections instantly — heartbeats only need to
    # catch silent stalls.
    return RuntimeConfig(
        key_size=128, seed=78,
        net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
    )


@pytest.fixture(scope="session")
def net_inputs():
    rng = np.random.default_rng(1)
    return [rng.uniform(0, 1, (1, 8, 8)) for _ in range(6)]


@pytest.fixture()
def make_providers(net_model, net_config):
    """Fresh provider pair per call (in-process runs mutate obfuscator
    state, so reference and distributed runs each get their own)."""

    def build(config=None):
        config = config or net_config
        return (
            ModelProvider(net_model, decimals=2, config=config),
            DataProvider(value_decimals=2, config=config),
        )

    return build


@pytest.fixture()
def make_plan(make_providers):
    def build(cluster):
        model_provider, _ = make_providers()
        return allocate_even(model_provider.stages, cluster).plan

    return build


@pytest.fixture()
def reference_results(make_providers, net_inputs):
    """request_id -> probabilities from the in-process pipeline."""

    def build(plan):
        model_provider, data_provider = make_providers()
        stats = Pipeline(model_provider, data_provider,
                         plan).run_stream(net_inputs)
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
