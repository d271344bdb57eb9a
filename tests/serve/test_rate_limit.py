"""Per-tenant time-window rate limiting at the gateway front door.

The ``serve_tenant_rps`` knob puts a sliding one-second window
(:class:`repro.protocol.ratelimit.RateLimiter`) in front of every
tenant's submits: over-limit requests get **429 + Retry-After** on
the wire, are counted per tenant in ``serve_rate_limited``, and never
consume queue or quota.  Limits are per tenant — one tenant saturating
its window must not slow a neighbour down.
"""

import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import ReproError
from repro.protocol.ratelimit import RateLimitExceeded
from repro.serve.gateway import ServeGateway, build_serve_model
from repro.serve.loadgen import _Client

KEY_SIZE = 128
SEED = 47
RPS = 2


@pytest.fixture(scope="module")
def limited_gateway():
    model, decimals, input_shape = build_serve_model("tiny")
    config = RuntimeConfig(
        key_size=KEY_SIZE, seed=SEED,
        serve_queue_capacity=16, serve_tenant_quota=8,
        serve_tenant_rps=RPS,
    )
    gateway = ServeGateway(model, decimals, config)
    gateway.input_shape = input_shape
    gateway.start()
    yield gateway
    gateway.close()


@pytest.fixture(scope="module")
def client(limited_gateway):
    host, port = limited_gateway.address
    return _Client(f"http://{host}:{port}")


def _sample(gateway, seed=0):
    rng = np.random.default_rng(SEED + seed)
    return rng.uniform(0, 1, gateway.input_shape).tolist()


def _drain_window():
    time.sleep(1.0 + 0.1)


def _burst(client, gateway, tenant, count):
    statuses = []
    for i in range(count):
        status, body, headers = client.post(
            "/v1/infer",
            {"tenant": tenant, "input": _sample(gateway, i)},
        )
        statuses.append((status, body, headers))
    return statuses


class TestOverLimitSubmits:
    def test_burst_over_rps_gets_429_with_retry_after(
            self, limited_gateway, client):
        replies = _burst(client, limited_gateway, "bursty", RPS + 2)
        codes = [status for status, _, _ in replies]
        assert codes[:RPS] == [202] * RPS
        assert set(codes[RPS:]) == {429}
        for status, body, headers in replies[RPS:]:
            assert "error" in body
            assert headers.get("Retry-After") == "1"

    def test_window_slides_open_again(self, limited_gateway, client):
        _drain_window()
        replies = _burst(client, limited_gateway, "patient", RPS + 1)
        assert [s for s, _, _ in replies][-1] == 429
        _drain_window()
        status, body, _ = client.post(
            "/v1/infer",
            {"tenant": "patient", "input": _sample(limited_gateway)},
        )
        assert status == 202
        assert "job_id" in body

    def test_limits_are_per_tenant(self, limited_gateway, client):
        _drain_window()
        replies = _burst(client, limited_gateway, "noisy", RPS + 1)
        assert [s for s, _, _ in replies][-1] == 429
        status, _, _ = client.post(
            "/v1/infer",
            {"tenant": "quiet", "input": _sample(limited_gateway)},
        )
        assert status == 202

    def test_rejections_counted_per_tenant_in_metrics(
            self, limited_gateway, client):
        _drain_window()
        _burst(client, limited_gateway, "counted", RPS + 3)
        text = limited_gateway.obs.registry.to_prometheus()
        line = next(
            (line for line in text.splitlines()
             if line.startswith("serve_rate_limited")
             and 'tenant="counted"' in line),
            None,
        )
        assert line is not None
        assert float(line.rsplit(" ", 1)[1]) == 3.0

    def test_limiter_map_bounded_by_registered_tenants(
            self, limited_gateway):
        assert set(limited_gateway._limiters) <= \
            set(limited_gateway.registry.names())

    def test_unregistered_tenant_never_allocates_a_limiter(
            self, limited_gateway, client):
        """A rejected tenant name must not leave a limiter behind —
        the limiter map is bounded by the tenant table, not by
        attacker-chosen names."""
        before = set(limited_gateway._limiters)
        status, _, _ = client.post(
            "/v1/infer",
            {"tenant": "bad name!", "input": _sample(limited_gateway)},
        )
        assert status == 400
        assert set(limited_gateway._limiters) == before


class TestDisabledByDefault:
    def test_zero_rps_never_rate_limits(self):
        model, decimals, input_shape = build_serve_model("tiny")
        config = RuntimeConfig(
            key_size=KEY_SIZE, seed=SEED,
            serve_queue_capacity=16, serve_tenant_quota=8,
        )
        assert config.serve_tenant_rps == 0
        with ServeGateway(model, decimals, config) as gateway:
            sample = np.random.default_rng(SEED).uniform(
                0, 1, input_shape
            )
            for _ in range(RPS + 3):
                job = gateway.submit("free", sample)
                assert job.state != "shed"
            assert gateway._limiters == {}


class TestSubmitLevelContract:
    def test_submit_raises_rate_limit_exceeded(self, limited_gateway):
        """The Python-level API surfaces the same condition as the
        typed ProtocolError subclass (what the HTTP handler maps to
        429)."""
        _drain_window()
        sample = np.random.default_rng(SEED).uniform(
            0, 1, limited_gateway.input_shape
        )
        for _ in range(RPS):
            limited_gateway.submit("direct", sample)
        with pytest.raises(RateLimitExceeded):
            limited_gateway.submit("direct", sample)
        # ...and it is a ReproError, so callers that guard broadly
        # still catch it.
        with pytest.raises(ReproError):
            limited_gateway.submit("direct", sample)
