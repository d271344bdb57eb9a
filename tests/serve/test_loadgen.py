"""Loadgen end-to-end: self-hosted gateway, exact accounting, the
``serve/1`` report schema, and zero cross-tenant decrypts."""

import json

import pytest

from repro.errors import ServeError
from repro.serve import LoadgenOptions, run_loadgen
from repro.serve.loadgen import (
    SCHEMA,
    _retry_after_seconds,
    _submit,
    _TenantOutcome,
    render_report,
)


class TestOptions:
    def test_rejects_empty_campaign(self):
        with pytest.raises(ServeError):
            LoadgenOptions(tenants=0)
        with pytest.raises(ServeError):
            LoadgenOptions(requests=0)
        with pytest.raises(ServeError):
            LoadgenOptions(mode="cloud")


class TestLocalCampaign:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serve") / "BENCH_serve.json"
        options = LoadgenOptions(
            tenants=2, requests=2, mode="local", key_size=128,
            seed=9, tenant_quota=4, queue_capacity=8,
            out=str(out),
        )
        return run_loadgen(options), out

    def test_accounting_exact(self, report):
        result, _ = report
        assert result["accounting_ok"], result["errors"]
        assert result["accepted"] + result["shed"] \
            == result["submitted"]
        assert result["submitted"] == 4
        assert result["server"]["all_terminal"]
        assert result["server"]["jobs"] == result["submitted"]

    def test_zero_cross_tenant_decrypts(self, report):
        result, _ = report
        assert result["cross_tenant_decrypts"] == 0
        assert result["isolation"]["attempts"] == 2
        assert result["isolation"]["self_decrypt_ok"]

    def test_schema(self, report):
        result, out = report
        doc = json.loads(out.read_text())
        assert doc == result
        assert doc["schema"] == SCHEMA
        for key in ("mode", "tenants", "requests_per_tenant",
                    "submitted", "accepted", "shed", "outcomes",
                    "accounting_ok", "wall_seconds", "req_per_s",
                    "latency_ms", "isolation", "config", "server"):
            assert key in doc, f"missing {key} in BENCH_serve.json"
        assert doc["latency_ms"]["p50"] <= doc["latency_ms"]["p99"]
        assert doc["req_per_s"] > 0

    def test_render(self, report):
        result, _ = report
        text = render_report(result)
        assert "accounting" in text and "exact" in text
        assert "isolation: 0 cross-tenant decrypts" in text

    def test_every_run_job_in_exactly_one_dispatch(self, report):
        result, _ = report
        batches = result["batch_jobs"]
        assert batches["sum"] == result["jobs_run"] > 0
        assert 1 <= batches["count"] <= batches["sum"]
        assert 1 <= batches["max"] <= batches["sum"]
        assert "batching:" in render_report(result)

    def test_local_mode_opens_no_task_connections(self, report):
        result, _ = report
        assert result["task_connections_opened"] == 0


class TestFleetCampaign:
    def test_each_tenant_dials_each_stage_once(self):
        options = LoadgenOptions(
            tenants=2, requests=3, mode="fleet", fleet_workers=2,
            key_size=128, seed=9, tenant_quota=4, queue_capacity=8,
            out=None,
        )
        result = run_loadgen(options)
        assert result["accounting_ok"], result["errors"]
        assert result["outcomes"] == {"done": 6}
        assert result["plan_stages"] == 8
        assert result["task_connections_opened"] \
            == options.tenants * result["plan_stages"]


class TestOversubscribed:
    def test_quota_sheds_and_accounting_holds(self):
        """A burst beyond the per-tenant quota must shed — and the
        identity still holds exactly."""
        options = LoadgenOptions(
            tenants=2, requests=5, mode="local", key_size=128,
            seed=13, tenant_quota=2, queue_capacity=16,
            out=None, submit_retries=0,
        )
        result = run_loadgen(options)
        assert result["accounting_ok"], result["errors"]
        assert result["shed"] > 0
        assert result["accepted"] + result["shed"] \
            == result["submitted"] == 10
        assert result["outcomes"].get("done") == result["accepted"]

    def test_retry_after_converts_sheds_into_accepts(self):
        """With Retry-After honored, the same oversubscribed burst
        re-posts after the hinted delay and lands: retries show up in
        the report and the accounting identity still holds."""
        options = LoadgenOptions(
            tenants=2, requests=5, mode="local", key_size=128,
            seed=13, tenant_quota=2, queue_capacity=16,
            out=None, submit_retries=4,
        )
        result = run_loadgen(options)
        assert result["accounting_ok"], result["errors"]
        assert result["retries"] > 0
        assert result["accepted"] + result["shed"] \
            + result["rate_limited"] == result["submitted"] == 10
        # The retried posts recovered capacity the no-retry run shed.
        assert result["shed"] == 0


class _ScriptedClient:
    """Replays a fixed sequence of (status, body, headers) posts."""

    def __init__(self, responses):
        self._responses = list(responses)
        self.posts = 0

    def post(self, path, doc):
        self.posts += 1
        return self._responses.pop(0)


class TestSubmitRetries:
    def _options(self, **overrides):
        return LoadgenOptions(mode="local", out=None, **overrides)

    def test_503_with_retry_after_is_retried_to_success(self):
        client = _ScriptedClient([
            (503, {"error": "full"}, {"Retry-After": "0"}),
            (202, {"job_id": "j1"}, {}),
        ])
        outcome = _TenantOutcome()
        status, body = _submit(client, {}, self._options(), outcome)
        assert status == 202 and body == {"job_id": "j1"}
        assert outcome.retries == 1
        assert outcome.shed_posts == 1
        assert client.posts == 2

    def test_no_retry_after_header_means_no_retry(self):
        client = _ScriptedClient([
            (503, {"error": "full"}, {}),
        ])
        outcome = _TenantOutcome()
        status, _ = _submit(client, {}, self._options(), outcome)
        assert status == 503
        assert outcome.retries == 0
        assert client.posts == 1

    def test_attempts_bounded_by_submit_retries(self):
        shed = (503, {"error": "full"}, {"Retry-After": "0"})
        client = _ScriptedClient([shed, shed, shed, shed])
        outcome = _TenantOutcome()
        status, _ = _submit(
            client, {}, self._options(submit_retries=2), outcome
        )
        assert status == 503
        assert outcome.retries == 2
        assert client.posts == 3  # initial + two retries

    def test_429_retries_then_surfaces_rate_limit(self):
        limited = (429, {"error": "slow down"}, {"Retry-After": "0"})
        client = _ScriptedClient([limited, limited, limited])
        outcome = _TenantOutcome()
        status, _ = _submit(
            client, {}, self._options(submit_retries=2), outcome
        )
        assert status == 429
        assert outcome.retries == 2
        assert outcome.shed_posts == 0  # 429s are not sheds

    def test_retry_after_parsing(self):
        assert _retry_after_seconds({"Retry-After": "1.5"}) == 1.5
        assert _retry_after_seconds({"retry-after": "2"}) == 2.0
        assert _retry_after_seconds({"Retry-After": "-3"}) == 0.0
        assert _retry_after_seconds({"Retry-After": "soon"}) is None
        assert _retry_after_seconds({}) is None

    def test_negative_retry_knobs_refused(self):
        with pytest.raises(ServeError):
            LoadgenOptions(submit_retries=-1)
        with pytest.raises(ServeError):
            LoadgenOptions(retry_after_cap=-0.1)
