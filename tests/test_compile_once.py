"""Every linear layer's column schedules compile once per session.

A layer's :class:`~repro.crypto.sparse.SparseMatvecPlan` compiles its
schedules when it is built — by the model provider at session setup,
and by each remote worker session from the handshake spec — and never
again: N requests through an in-process session, a threaded pipeline,
a TCP coordinator or the serving gateway's tenants add no compiles.
The wire carries only the column index, so a tampered plan section
fails with a transport or crypto error, never a wrong answer.
"""

import json

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.crypto import sparse
from repro.crypto.serialize import any_tensor_to_bytes
from repro.crypto.tensor import EncryptedTensor
from repro.net import Coordinator, WorkerServer, build_worker_spec
from repro.net.transport import (
    KIND_ERROR,
    KIND_HELLO,
    KIND_TASK,
    KIND_WELCOME,
    Envelope,
    dial,
)
from repro.net.wire import ROLE_MODEL, plan_to_wire
from repro.nn import model_zoo
from repro.nn.layers import LayerKind
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.serve import Job
from repro.serve.tenants import TenantRuntime
from repro.stream import Pipeline

REQUESTS = 3
CLUSTER = ClusterSpec.homogeneous(1, 1, 2)


@pytest.fixture(scope="module")
def model():
    return model_zoo.conv_fc(
        (1, 6, 6), 3, conv_channels=(2,), fc_hidden=6, seed=4,
        name="compile-once",
    )


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(2)
    return [rng.uniform(0, 1, (1, 6, 6)) for _ in range(REQUESTS)]


@pytest.fixture()
def compiles(monkeypatch):
    """Layer plans compiled since the test started."""
    calls = []
    original = sparse.compile_schedules

    def counting(columns):
        calls.append(len(columns))
        return original(columns)

    monkeypatch.setattr(sparse, "compile_schedules", counting)
    return calls


def _config(seed=13):
    return RuntimeConfig(key_size=128, seed=seed)


def _providers(model, config):
    return (ModelProvider(model, decimals=2, config=config),
            DataProvider(value_decimals=2, config=config))


def _layers(model_provider) -> int:
    return sum(len(stage_plan.affines)
               for stage_plan in model_provider._linear_plans.values())


class TestOncePerSession:
    def test_in_process_session(self, model, inputs, compiles):
        session = InferenceSession(*_providers(model, _config()))
        layers = _layers(session.model_provider)
        assert len(compiles) == layers
        for x in inputs:
            session.run(x)
        assert len(compiles) == layers

    def test_threaded_pipeline(self, model, inputs, compiles):
        model_provider, data_provider = _providers(model, _config())
        plan = allocate_even(model_provider.stages, CLUSTER).plan
        pipeline = Pipeline(model_provider, data_provider, plan)
        for _ in range(2):
            stats = pipeline.run_stream(inputs)
            assert len(stats.results) == REQUESTS
        assert len(compiles) == _layers(model_provider)

    def test_tcp_coordinator(self, model, inputs, compiles):
        """The coordinator's provider compiles at setup, the model
        worker's session once from the spec; later streams reuse
        both."""
        model_provider, data_provider = _providers(model, _config())
        plan = allocate_even(model_provider.stages, CLUSTER).plan
        reference = InferenceSession(*_providers(model, _config()))
        expected = [reference.run(x).probabilities for x in inputs]
        layers = _layers(model_provider)
        del compiles[:]
        servers = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in servers]
        try:
            with Coordinator(model_provider, data_provider, plan,
                             addresses) as coordinator:
                first = coordinator.run_stream(inputs)
                assert len(compiles) == layers
                second = coordinator.run_stream(inputs)
                assert len(compiles) == layers
        finally:
            for server in servers:
                server.stop(abort=True)
        for stats in (first, second):
            got = {r.request_id: r.probabilities for r in stats.results}
            for index, probabilities in enumerate(expected):
                assert np.array_equal(got[index], probabilities)

    @pytest.mark.parametrize("mode", ["local", "fleet"])
    def test_gateway_tenants(self, model, inputs, compiles, mode):
        """Each tenant compiles its layers once (and, in fleet mode,
        once more in its worker session), however many jobs run."""
        servers = [WorkerServer(), WorkerServer()] \
            if mode == "fleet" else []
        addresses = [server.start() for server in servers]
        runtimes = []
        try:
            for name in ("acme", "globex"):
                runtimes.append(TenantRuntime(
                    name, model, 2, _config(), CLUSTER, mode=mode,
                    worker_addresses=addresses or None,
                ))
            layers = _layers(runtimes[0].model_provider)
            per_tenant = layers * (2 if mode == "fleet" else 1)
            for runtime in runtimes:
                for x in inputs:
                    runtime.run(Job(runtime.name, x.tolist()))
            assert len(compiles) == len(runtimes) * per_tenant
            for runtime in runtimes:
                runtime.run(Job(runtime.name, inputs[0].tolist()))
            assert len(compiles) == len(runtimes) * per_tenant
        finally:
            for runtime in runtimes:
                runtime.close()
            for server in servers:
                server.stop(abort=True)


class TestTamperedWirePlans:
    """A handshake whose plan section is malformed or disagrees with
    the stage fails the task with an error envelope."""

    def _run_tampered(self, model, tamper):
        """Run a task after ``tamper`` rewrote the first layer's plan."""
        def first_plan(stage):
            stage["matvec_plans"][0] = tamper(stage["matvec_plans"][0])

        return self._run_tampered_stage(model, first_plan)

    def _run_tampered_stage(self, model, tamper):
        """Run a task after ``tamper`` edited the last linear stage's
        spec section in place."""
        model_provider, data_provider = _providers(model, _config())
        model_provider.register_public_key(data_provider.public_key)
        plan = allocate_even(model_provider.stages, CLUSTER).plan
        spec = json.loads(json.dumps(build_worker_spec(
            model_provider, data_provider, plan, ROLE_MODEL)))
        stage_index = [s.index for s in plan.stages
                       if s.kind is LayerKind.LINEAR][-1]
        tamper(spec["stages"][str(stage_index)])
        in_dim = model_provider.linear_stage(stage_index).plan \
            .affines[0].weight.shape[1]
        tensor = EncryptedTensor.encrypt(
            np.arange(in_dim), data_provider.public_key, exponent=0,
            engine=data_provider.engine)
        server = WorkerServer()
        host, port = server.start()
        connection = None
        try:
            connection = dial(host, port)
            assert connection.request(
                Envelope(KIND_HELLO, spec), timeout=5
            ).kind == KIND_WELCOME
            return connection.request(Envelope(
                KIND_TASK,
                {"request_id": 0, "stage_index": stage_index,
                 "obfuscation_round": None,
                 "trace_id": None, "trace_parent": None},
                payload=any_tensor_to_bytes(tensor),
            ), timeout=20)
        finally:
            if connection is not None:
                connection.close()
            server.stop(abort=True)

    def test_repeated_column_is_a_transport_error(self, model):
        def repeat_column(wire):
            wire["columns"].append(wire["columns"][0])
            return wire

        reply = self._run_tampered(model, repeat_column)
        assert reply.kind == KIND_ERROR
        assert "TransportError" in reply.header["message"]

    def test_zero_weight_is_a_transport_error(self, model):
        def zero_weight(wire):
            wire["columns"][0][1][0][0] = 0
            return wire

        reply = self._run_tampered(model, zero_weight)
        assert reply.kind == KIND_ERROR
        assert "TransportError" in reply.header["message"]

    def test_wrong_shape_is_a_crypto_error(self, model):
        def widen(wire):
            state = plan_to_wire(sparse.SparseMatvecPlan.from_dense(
                np.ones((wire["out_dim"], wire["in_dim"] + 1),
                        dtype=np.int64)))
            return state

        reply = self._run_tampered(model, widen)
        assert reply.kind == KIND_ERROR
        assert "CryptoError" in reply.header["message"]

    def test_missing_plans_are_a_transport_error(self, model):
        def drop(stage):
            del stage["matvec_plans"]

        reply = self._run_tampered_stage(model, drop)
        assert reply.kind == KIND_ERROR
        assert "TransportError" in reply.header["message"]

    def test_null_plan_is_a_transport_error(self, model):
        reply = self._run_tampered(model, lambda wire: None)
        assert reply.kind == KIND_ERROR
        assert "TransportError" in reply.header["message"]

    def test_plan_count_mismatch_is_a_transport_error(self, model):
        def extra(stage):
            stage["matvec_plans"].append(stage["matvec_plans"][0])

        reply = self._run_tampered_stage(model, extra)
        assert reply.kind == KIND_ERROR
        assert "TransportError" in reply.header["message"]
