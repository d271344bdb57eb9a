"""Wire-format tests for the handshake spec's config record.

The whole :class:`RuntimeConfig` rides every handshake spec
(``config_to_wire`` / ``config_from_wire``), so the record must
round-trip exactly, and a record the worker cannot rebuild — a field
the config does not have, a value of the wrong type — must fail as a
clean :class:`TransportError` that the worker answers with an error
envelope, never an exception that kills its connection thread.
"""

import copy
import json

import pytest

from repro.config import RuntimeConfig
from repro.errors import TransportError
from repro.net import WorkerServer, build_worker_spec
from repro.net.transport import KIND_ERROR, KIND_HELLO, KIND_WELCOME, \
    Envelope, dial
from repro.net.wire import ROLE_MODEL, config_from_wire, config_to_wire
from repro.planner.plan import ClusterSpec

CUSTOM = RuntimeConfig(
    key_size=512, seed=11, blinding_pool_size=7,
    bigint_backend="python", pack_lanes=4, observability=True,
    net_request_timeout=9.5, net_max_frame_bytes=4096,
    chaos_seed=3, chaos_drop_rate=0.25,
    serve_tenant_allowlist=("a", "b"), serve_tenant_rps=5,
    compress_enabled=True, compress_sparsity=0.5, compress_clusters=4,
    serve_compress_tenants=("a",),
    cluster_backlog_high=6.0, cluster_backlog_low=1.0,
)


class TestRoundTrip:
    @pytest.mark.parametrize("config", [RuntimeConfig(), CUSTOM],
                             ids=["default", "custom"])
    def test_config_round_trips_equal(self, config):
        # Through JSON, as the worker receives it in the hello header.
        record = json.loads(json.dumps(config_to_wire(config)))
        assert config_from_wire(record) == config


class TestMalformedRecords:
    @pytest.mark.parametrize("field, value", [
        ("workers", 2),
        ("no_such_knob", 0),
        # Fields an older coordinator's hello may still carry.
        ("hyperthreading", False),
        ("net_connect_timeout", 5.0),
    ])
    def test_unknown_field_is_a_transport_error(self, field, value):
        record = config_to_wire(RuntimeConfig())
        record[field] = value
        with pytest.raises(TransportError, match=field):
            config_from_wire(record)

    @pytest.mark.parametrize("field, value", [
        ("key_size", "256"),
        ("key_size", 256.0),
        ("key_size", True),
        ("observability", "yes"),
        ("net_request_timeout", None),
        ("serve_tenant_allowlist", "abc"),
        ("bigint_backend", 1),
    ])
    def test_wrong_type_is_a_transport_error(self, field, value):
        record = config_to_wire(RuntimeConfig())
        record[field] = value
        with pytest.raises(TransportError, match=field):
            config_from_wire(record)

    def test_invalid_value_is_a_transport_error(self):
        record = config_to_wire(RuntimeConfig())
        record["key_size"] = 32
        with pytest.raises(TransportError):
            config_from_wire(record)

    def test_non_object_record_is_a_transport_error(self):
        with pytest.raises(TransportError):
            config_from_wire([("key_size", 256)])


class TestWorkerRefusal:
    def test_bad_config_gets_an_error_envelope_and_worker_serves_on(
            self, make_providers, make_plan, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        model_provider, data_provider = make_providers()
        model_provider.register_public_key(data_provider.public_key)
        _, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        spec = build_worker_spec(model_provider, data_provider,
                                 plan, ROLE_MODEL)
        for field, value in (("workers", 2), ("key_size", "128")):
            bad = copy.deepcopy(spec)
            bad["config"][field] = value
            connection = dial(host, port)
            try:
                reply = connection.request(Envelope(KIND_HELLO, bad),
                                           timeout=5)
            finally:
                connection.close()
            assert reply.kind == KIND_ERROR
            assert "bad config record" in reply.header["message"]
            assert field in reply.header["message"]
        connection = dial(host, port)
        try:
            assert connection.request(Envelope(KIND_HELLO, spec),
                                      timeout=5).kind == KIND_WELCOME
        finally:
            connection.close()
