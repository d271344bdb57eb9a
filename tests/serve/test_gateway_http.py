"""HTTP front-door contract tests over a real local-mode gateway.

One gateway per module (keygen and model build amortized); each test
talks real HTTP through the stdlib client wrapper — status codes,
``Retry-After``, the 403 cross-tenant read refusal, and the
Prometheus exposition are all asserted on the wire, not on internals.
"""

import http.client
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.serve import TERMINAL_STATES
from repro.serve.gateway import ServeGateway, build_serve_model
from repro.serve.loadgen import _Client

KEY_SIZE = 128
SEED = 31


@pytest.fixture(scope="module")
def gateway():
    model, decimals, input_shape = build_serve_model("tiny")
    config = RuntimeConfig(
        key_size=KEY_SIZE, seed=SEED,
        serve_queue_capacity=8, serve_tenant_quota=2,
        serve_retry_after=2.0,
    )
    gateway = ServeGateway(model, decimals, config)
    gateway.input_shape = input_shape
    gateway.start()
    yield gateway
    gateway.close()


@pytest.fixture(scope="module")
def client(gateway):
    host, port = gateway.address
    return _Client(f"http://{host}:{port}")


def _sample(gateway, seed=0):
    rng = np.random.default_rng(SEED + seed)
    return rng.uniform(0, 1, gateway.input_shape).tolist()


def _poll_terminal(client, tenant, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = client.get(
            f"/v1/jobs/{job_id}?tenant={tenant}"
        )
        assert status == 200
        if body["state"] in TERMINAL_STATES:
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never went terminal")


class TestInferRoundTrip:
    def test_submit_poll_done(self, gateway, client):
        status, body, _ = client.post(
            "/v1/infer", {"tenant": "rt", "input": _sample(gateway)}
        )
        assert status == 202
        assert body["state"] in ("queued", "running")
        final = _poll_terminal(client, "rt", body["job_id"])
        assert final["state"] == "done"
        assert len(final["result"]["probabilities"]) == 3
        assert final["queue_seconds"] is not None
        assert final["service_seconds"] is not None

    def test_healthz(self, client):
        status, body, _ = client.get("/healthz")
        assert status == 200 and body == {"ok": True}

    def test_unknown_route_404(self, client):
        status, _, _ = client.get("/v1/nope")
        assert status == 404
        status, _, _ = client.post("/v1/nope", {})
        assert status == 404


class TestRejections:
    @pytest.mark.parametrize("doc", [
        {},                                  # no tenant, no input
        {"tenant": "t"},                     # no input
        {"input": [1.0]},                    # no tenant
        {"tenant": "t", "input": [1.0], "deadline": "soon"},
    ])
    def test_malformed_body_400(self, client, doc):
        status, body, _ = client.post("/v1/infer", doc)
        assert status == 400
        assert "malformed" in body["error"]

    def test_bad_tenant_name_400(self, gateway, client):
        status, body, _ = client.post(
            "/v1/infer",
            {"tenant": "bad name!", "input": _sample(gateway)},
        )
        assert status == 400
        assert "invalid tenant name" in body["error"]

    def test_unknown_job_404(self, client):
        status, _, _ = client.get("/v1/jobs/deadbeef?tenant=rt")
        assert status == 404

    def test_cross_tenant_read_403_and_counted(self, gateway,
                                               client):
        status, body, _ = client.post(
            "/v1/infer", {"tenant": "owner",
                          "input": _sample(gateway, 1)}
        )
        assert status == 202
        job_id = body["job_id"]
        status, body, _ = client.get(
            f"/v1/jobs/{job_id}?tenant=snoop"
        )
        assert status == 403
        assert "different tenant" in body["error"]
        denied = {
            labels["tenant"]: counter.value
            for labels, counter in gateway.obs.registry.find(
                "counter", "serve_cross_tenant_denied")
        }
        assert denied.get("snoop", 0) >= 1
        # A missing tenant param is refused the same way.
        status, _, _ = client.get(f"/v1/jobs/{job_id}")
        assert status == 403
        _poll_terminal(client, "owner", job_id)


class TestShedding:
    def test_over_capacity_503_with_retry_after(self, gateway,
                                                client):
        """Quota 2: a burst of 5 for one tenant must shed at least
        one request with 503 + Retry-After while the rest land."""
        statuses, retry_after = [], []
        pending = []
        for index in range(5):
            status, body, headers = client.post(
                "/v1/infer",
                {"tenant": "burst", "input": _sample(gateway, index)},
            )
            statuses.append(status)
            if status == 202:
                pending.append(body["job_id"])
            elif status == 503:
                retry_after.append(headers.get("Retry-After"))
                assert body["state"] == "shed"
        assert statuses.count(503) >= 1
        assert statuses.count(202) + statuses.count(503) == 5
        assert all(value == "2" for value in retry_after)
        for job_id in pending:
            assert _poll_terminal(client, "burst",
                                  job_id)["state"] == "done"


class TestTenantRejection:
    """Registration refusals are permanent conditions: 403 with no
    Retry-After, unlike the retryable 503 shed path."""

    def test_full_tenant_table_403_without_retry_after(self):
        model, decimals, input_shape = build_serve_model("tiny")
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED,
                               serve_max_tenants=1)
        with ServeGateway(model, decimals, config) as gateway:
            host, port = gateway.address
            client = _Client(f"http://{host}:{port}")
            rng = np.random.default_rng(SEED)
            sample = rng.uniform(0, 1, input_shape).tolist()
            status, _, _ = client.post(
                "/v1/infer", {"tenant": "first", "input": sample}
            )
            assert status == 202
            status, body, headers = client.post(
                "/v1/infer", {"tenant": "second", "input": sample}
            )
            assert status == 403
            assert "cap reached" in body["error"]
            assert "Retry-After" not in headers

    def test_allowlist_miss_403(self):
        model, decimals, input_shape = build_serve_model("tiny")
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED,
                               serve_tenant_allowlist=("vip",))
        with ServeGateway(model, decimals, config) as gateway:
            host, port = gateway.address
            client = _Client(f"http://{host}:{port}")
            rng = np.random.default_rng(SEED)
            sample = rng.uniform(0, 1, input_shape).tolist()
            status, _, _ = client.post(
                "/v1/infer", {"tenant": "vip", "input": sample}
            )
            assert status == 202
            status, body, headers = client.post(
                "/v1/infer", {"tenant": "intruder", "input": sample}
            )
            assert status == 403
            assert "allowlist" in body["error"]
            assert "Retry-After" not in headers


class TestReplyPath:
    def test_keepalive_replies_leave_at_once(self, gateway):
        """Twenty sequential keep-alive requests on one connection:
        each reply goes out as one segment with Nagle off, so none
        waits for the client's delayed ACK (about 44 ms a reply when
        headers and body left as two segments)."""
        host, port = gateway.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                reply = connection.getresponse()
                assert reply.status == 200
                reply.read()
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.4, f"20 keep-alive replies took {elapsed:.3f}s"


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, gateway, client):
        import urllib.request

        host, port = gateway.address
        with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10) as reply:
            assert reply.status == 200
            assert "text/plain" in reply.headers["Content-Type"]
            text = reply.read().decode("utf-8")
        assert "# TYPE serve_jobs_submitted counter" in text
        assert 'serve_jobs_submitted{tenant="rt"}' in text
        assert "# TYPE serve_http_responses counter" in text
        assert "serve_tenants" in text
