"""Each protocol party builds one engine, on the configured backend.

The model provider, the data provider and every remote worker session
build their :class:`~repro.crypto.engine.PaillierEngine` once, through
:func:`~repro.crypto.engine.party_engine`, and every stage of every
runtime runs on it: requests through an in-process session, a threaded
pipeline, a TCP coordinator or a local-mode gateway tenant build no
engine after setup, every engine uses ``config.bigint_backend``, and
no path falls back to the process-global
:func:`~repro.crypto.engine.default_engine`.
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.crypto import engine as engine_module
from repro.crypto.backend import HAVE_GMPY2, resolve_backend
from repro.net import Coordinator, WorkerServer
from repro.nn import model_zoo
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.serve import Job
from repro.serve.tenants import TenantRuntime
from repro.stream import Pipeline
from repro.stream.executors import LinearStageExecutor, build_executors

REQUESTS = 3
CLUSTER = ClusterSpec.homogeneous(1, 1, 2)
BACKENDS = ["python"] + (["gmpy2"] if HAVE_GMPY2 else [])


@pytest.fixture(scope="module")
def model():
    return model_zoo.conv_fc(
        (1, 6, 6), 3, conv_channels=(2,), fc_hidden=6, seed=4,
        name="one-engine",
    )


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(3)
    return [rng.uniform(0, 1, (1, 6, 6)) for _ in range(REQUESTS)]


@pytest.fixture(params=BACKENDS)
def config(request):
    return RuntimeConfig(key_size=128, seed=29,
                         bigint_backend=request.param)


@pytest.fixture()
def engines(monkeypatch):
    """The backend name of every engine built since the test started;
    the shared default engines start empty."""
    built = []
    original = engine_module.PaillierEngine.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.backend.name)

    monkeypatch.setattr(engine_module.PaillierEngine, "__init__",
                        counting)
    monkeypatch.setattr(engine_module, "_default_engines", {})
    return built


def _providers(model, config):
    return (ModelProvider(model, decimals=2, config=config),
            DataProvider(value_decimals=2, config=config))


def _check(engines, config, parties, public_key):
    """``parties`` engines were built, all on the configured backend,
    and nothing reached the shared default engine."""
    assert len(engines) == parties
    assert set(engines) == {resolve_backend(config.bigint_backend).name}
    assert public_key.n not in engine_module._default_engines


class TestOneEnginePerParty:
    def test_in_process_session(self, model, inputs, config, engines):
        session = InferenceSession(*_providers(model, config))
        assert len(engines) == 2
        for x in inputs:
            session.run(x)
        _check(engines, config, 2, session.data_provider.public_key)

    def test_threaded_pipeline(self, model, inputs, config, engines):
        model_provider, data_provider = _providers(model, config)
        plan = allocate_even(model_provider.stages, CLUSTER).plan
        pipeline = Pipeline(model_provider, data_provider, plan)
        assert len(engines) == 2
        for _ in range(2):
            stats = pipeline.run_stream(inputs)
            assert len(stats.results) == REQUESTS
        _check(engines, config, 2, data_provider.public_key)

    def test_executors_share_the_party_engines(self, model, config,
                                               engines):
        model_provider, data_provider = _providers(model, config)
        model_provider.register_public_key(data_provider.public_key)
        plan = allocate_even(model_provider.stages, CLUSTER).plan
        executors = build_executors(model_provider, data_provider, plan)
        linear = [e for e in executors
                  if isinstance(e, LinearStageExecutor)]
        assert len(linear) > 1
        for executor in executors:
            expected = (model_provider.engine if executor in linear
                        else data_provider.engine)
            assert executor.stage.engine is expected
        _check(engines, config, 2, data_provider.public_key)

    def test_tcp_coordinator(self, model, inputs, config, engines):
        """Two parties in the coordinator's process, plus one engine
        per worker session, built at the handshake."""
        model_provider, data_provider = _providers(model, config)
        plan = allocate_even(model_provider.stages, CLUSTER).plan
        servers = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in servers]
        try:
            with Coordinator(model_provider, data_provider, plan,
                             addresses) as coordinator:
                for _ in range(2):
                    stats = coordinator.run_stream(inputs)
                    assert len(stats.results) == REQUESTS
        finally:
            for server in servers:
                server.stop(abort=True)
        _check(engines, config, 4, data_provider.public_key)

    def test_local_gateway_tenant(self, model, inputs, config, engines):
        """A local-mode tenant builds a pipeline per job over its
        persistent parties; only the first job's key registration
        builds an engine (the model provider's)."""
        runtime = TenantRuntime("acme", model, 2, config, CLUSTER,
                                mode="local")
        try:
            for x in inputs:
                runtime.run(Job(runtime.name, x.tolist()))
            assert runtime.jobs_run == REQUESTS
        finally:
            runtime.close()
        _check(engines, runtime.config, 2, runtime.public_key)
