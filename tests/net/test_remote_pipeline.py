"""Integration tests: coordinator + in-thread workers over real TCP.

The acceptance bar is bit-identity: the distributed runtime must
produce byte-for-byte the same probability vectors as the in-process
thread pipeline, because both run the identical deterministic
plaintext arithmetic — only the transport differs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import HandshakeError, PoisonedRequestError
from repro.net import Coordinator, WorkerServer, build_worker_spec
from repro.net.transport import (
    KIND_ERROR,
    KIND_HELLO,
    KIND_TASK,
    KIND_WELCOME,
    Envelope,
    dial,
)
from repro.net.wire import (
    CLASS_PERMANENT,
    ROLE_DATA,
    ROLE_MODEL,
    raise_remote_error,
)
from repro.nn.layers import LayerKind
from repro.observability import Observability
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.stream import RetryPolicy


def _coordinator(providers, plan, addresses, **kwargs):
    model_provider, data_provider = providers
    kwargs.setdefault("retry_policy",
                      RetryPolicy(max_retries=3, base_delay=0.02))
    return Coordinator(model_provider, data_provider, plan, addresses,
                       **kwargs)


class TestBitIdentity:
    def test_distributed_matches_in_process(
            self, make_providers, make_plan, reference_results,
            net_inputs, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        expected = reference_results(plan)
        servers, addresses = worker_farm(WorkerServer(), WorkerServer())
        with _coordinator(make_providers(), plan, addresses) as coord:
            stats = coord.run_stream(net_inputs)
        assert not stats.dead_letters
        assert len(stats.results) == len(net_inputs)
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  expected[result.request_id])

    def test_second_stream_reuses_the_same_workers(
            self, make_providers, make_plan, reference_results,
            net_inputs, worker_farm):
        """Worker-side executors (and obfuscator round counters) are
        cached across streams; stateless deobfuscation must keep every
        later stream bit-identical too."""
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        expected = reference_results(plan)
        _, addresses = worker_farm(WorkerServer(), WorkerServer())
        with _coordinator(make_providers(), plan, addresses) as coord:
            coord.run_stream(net_inputs)
            stats = coord.run_stream(net_inputs)
        assert not stats.dead_letters
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  expected[result.request_id])

    def test_multi_server_cluster(self, make_providers, make_plan,
                                  reference_results, net_inputs,
                                  worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(2, 1, 2))
        expected = reference_results(plan)
        _, addresses = worker_farm(WorkerServer(), WorkerServer(),
                                   WorkerServer())
        with _coordinator(make_providers(), plan, addresses) as coord:
            stats = coord.run_stream(net_inputs)
        assert not stats.dead_letters
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  expected[result.request_id])


class TestObservabilityAcrossTheWire:
    def test_trace_ids_cross_the_wire(self, make_providers, make_plan,
                                      net_inputs, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        worker_obs = Observability(enabled=True)
        coord_obs = Observability(enabled=True)
        _, addresses = worker_farm(WorkerServer(obs=worker_obs),
                                   WorkerServer(obs=worker_obs))
        with _coordinator(make_providers(), plan, addresses,
                          obs=coord_obs) as coord:
            stats = coord.run_stream(net_inputs[:2])
        assert len(stats.results) == 2
        remote_spans = [s for s in worker_obs.tracer.spans()
                        if s.name.startswith("remote-stage-")]
        assert remote_spans, "worker recorded no remote stage spans"
        coordinator_traces = set(coord_obs.tracer.trace_ids())
        for span in remote_spans:
            assert span.trace_id in coordinator_traces

    def test_byte_counters_accumulate(self, make_providers, make_plan,
                                      net_inputs, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        obs = Observability(enabled=True)
        _, addresses = worker_farm(WorkerServer(), WorkerServer())
        with _coordinator(make_providers(), plan, addresses,
                          obs=obs) as coord:
            coord.run_stream(net_inputs[:2])
        snapshot = obs.registry.snapshot()
        sent = sum(m["value"] for m in snapshot["counters"]
                   if m["name"] == "net_bytes_sent")
        received = sum(m["value"] for m in snapshot["counters"]
                       if m["name"] == "net_bytes_received")
        # Each request crosses the wire once per stage, ciphertexts
        # are ~32 bytes each — both directions must be way past zero.
        assert sent > 1000
        assert received > 1000
        roundtrips = [m for m in snapshot["histograms"]
                      if m["name"] == "net_stage_roundtrip_seconds"]
        assert roundtrips and sum(m["count"] for m in roundtrips) > 0


class TestHandshake:
    def test_worker_count_must_match_cluster(self, make_providers,
                                             make_plan, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        _, addresses = worker_farm(WorkerServer())
        with pytest.raises(HandshakeError):
            _coordinator(make_providers(), plan, [addresses[0]])

    def test_role_pinning_refuses_cross_role_handshake(
            self, make_providers, make_plan, net_config, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        model_provider, data_provider = make_providers()
        model_provider.register_public_key(data_provider.public_key)
        _, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        model_spec = build_worker_spec(model_provider, data_provider,
                                       plan, ROLE_MODEL)
        data_spec = build_worker_spec(model_provider, data_provider,
                                      plan, ROLE_DATA)
        first = dial(host, port)
        reply = first.request(Envelope(KIND_HELLO, model_spec),
                              timeout=5)
        assert reply.kind == KIND_WELCOME
        assert reply.header["role"] == ROLE_MODEL
        second = dial(host, port)
        refusal = second.request(Envelope(KIND_HELLO, data_spec),
                                 timeout=5)
        assert refusal.kind == KIND_ERROR
        assert "pinned" in refusal.header["message"]
        first.close()
        second.close()

    def test_rehandshake_same_key_changed_spec_rebuilds_session(
            self, make_providers, make_plan, net_config, worker_farm):
        """A tenant session is pinned to the whole handshake spec, not
        just the keypair: a re-handshake with the same key but a
        changed config must rebuild the worker-side session instead of
        silently reusing stale executors."""
        import copy

        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        model_provider, data_provider = make_providers()
        model_provider.register_public_key(data_provider.public_key)
        servers, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        spec = build_worker_spec(model_provider, data_provider,
                                 plan, ROLE_MODEL)
        first = dial(host, port)
        assert first.request(Envelope(KIND_HELLO, spec),
                             timeout=5).kind == KIND_WELCOME
        original = servers[0]._sessions["default"]
        changed = copy.deepcopy(spec)
        changed["config"]["net_request_timeout"] = 77.0
        second = dial(host, port)
        reply = second.request(Envelope(KIND_HELLO, changed),
                               timeout=5)
        assert reply.kind == KIND_WELCOME
        rebuilt = servers[0]._sessions["default"]
        assert rebuilt is not original
        assert rebuilt.config.net_request_timeout == 77.0
        first.close()
        second.close()

    def test_rehandshake_identical_spec_reuses_session(
            self, make_providers, make_plan, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        model_provider, data_provider = make_providers()
        model_provider.register_public_key(data_provider.public_key)
        servers, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        spec = build_worker_spec(model_provider, data_provider,
                                 plan, ROLE_MODEL)
        connections = []
        for _ in range(2):
            connection = dial(host, port)
            assert connection.request(Envelope(KIND_HELLO, spec),
                                      timeout=5).kind == KIND_WELCOME
            connections.append(connection)
        assert len(servers[0]._sessions) == 1
        for connection in connections:
            connection.close()

    def test_rehandshake_different_key_refused(
            self, net_model, make_plan, net_config, worker_farm):
        """Same tenant, different keypair: refused outright (tenant
        isolation), never rebuilt."""
        from repro.protocol import DataProvider, ModelProvider

        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        specs = []
        for seed in (78, 79):
            config = replace(net_config, seed=seed)
            model_provider = ModelProvider(net_model, decimals=2,
                                           config=config)
            data_provider = DataProvider(value_decimals=2,
                                         config=config)
            model_provider.register_public_key(
                data_provider.public_key
            )
            specs.append(build_worker_spec(
                model_provider, data_provider, plan, ROLE_MODEL
            ))
        assert specs[0]["public_key"] != specs[1]["public_key"]
        _, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        first = dial(host, port)
        assert first.request(Envelope(KIND_HELLO, specs[0]),
                             timeout=5).kind == KIND_WELCOME
        second = dial(host, port)
        refusal = second.request(Envelope(KIND_HELLO, specs[1]),
                                 timeout=5)
        assert refusal.kind == KIND_ERROR
        assert "different keypair" in refusal.header["message"]
        first.close()
        second.close()

    def test_model_spec_never_carries_the_private_key(
            self, make_providers, make_plan):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        model_provider, data_provider = make_providers()
        model_provider.register_public_key(data_provider.public_key)
        model_spec = build_worker_spec(model_provider, data_provider,
                                       plan, ROLE_MODEL)
        assert "private_key" not in model_spec
        assert any("affines" in stage
                   for stage in model_spec["stages"].values())

    def test_data_spec_never_carries_model_parameters(
            self, make_providers, make_plan):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        model_provider, data_provider = make_providers()
        model_provider.register_public_key(data_provider.public_key)
        data_spec = build_worker_spec(model_provider, data_provider,
                                      plan, ROLE_DATA)
        assert "private_key" in data_spec
        for stage in data_spec["stages"].values():
            assert "affines" not in stage

    def test_wrong_kind_stage_rejected_as_permanent(
            self, make_providers, make_plan, net_inputs, worker_farm):
        """A model worker asked to run a non-linear stage must refuse
        (privacy separation), classified permanent on the wire."""
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        model_provider, data_provider = make_providers()
        model_provider.register_public_key(data_provider.public_key)
        _, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        spec = build_worker_spec(model_provider, data_provider, plan,
                                 ROLE_MODEL)
        connection = dial(host, port)
        assert connection.request(Envelope(KIND_HELLO, spec),
                                  timeout=5).kind == KIND_WELCOME
        nonlinear = next(s.index for s in plan.stages
                         if s.kind is LayerKind.NONLINEAR)
        from repro.crypto.serialize import tensor_to_bytes
        from repro.crypto.tensor import EncryptedTensor

        tensor = EncryptedTensor.encrypt(
            np.arange(3), data_provider.public_key,
            engine=data_provider.engine,
        )
        reply = connection.request(Envelope(
            KIND_TASK,
            {"request_id": 0, "stage_index": nonlinear,
             "obfuscation_round": None, "trace_id": None,
             "trace_parent": None},
            payload=tensor_to_bytes(tensor),
        ), timeout=5)
        assert reply.kind == KIND_ERROR
        assert reply.header["classification"] == CLASS_PERMANENT
        with pytest.raises(PoisonedRequestError):
            raise_remote_error(reply)
        connection.close()
