"""Soak harness smoke tests: options validation, a short real run,
and the BENCH_soak.json document shape."""

import json

import pytest

from repro.errors import ReproError
from repro.observability import NULL_TRACER, Observability
from repro.soak import (
    SCENARIO_NAMES,
    SoakOptions,
    SoakReport,
    run_soak,
)
from repro.soak.harness import _ElasticScenario


class TestSoakOptions:
    def test_defaults_cover_every_scenario(self):
        options = SoakOptions()
        assert options.scenarios == SCENARIO_NAMES
        assert options.duration == 20.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError, match="unknown soak scenario"):
            SoakOptions(scenarios=("single", "typo"))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ReproError):
            SoakOptions(duration=0.0)


class TestSoakReport:
    def test_ok_mirrors_doc(self):
        assert SoakReport(doc={"ok": True}).ok
        assert not SoakReport(doc={"ok": False}).ok


class TestShortSoakRun:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("soak") / "BENCH_soak.json"
        options = SoakOptions(
            duration=2.0, seed=7, out=str(out),
            scenarios=("single", "faulted"),
        )
        return run_soak(options), out

    def test_short_run_passes(self, report):
        result, _ = report
        assert result.ok, "\n".join(result.doc.get("failures", []))
        assert not result.doc["failures"]

    def test_document_schema(self, report):
        result, out = report
        doc = json.loads(out.read_text())
        assert doc == result.doc
        assert doc["schema"] == "soak/1"
        assert doc["seed"] == 7
        for key in ("elapsed_s", "requests_total", "sustained_rps",
                    "iterations", "latency_ms", "recovery_s",
                    "leaks", "chaos", "failures", "ok"):
            assert key in doc, f"missing {key} in BENCH_soak.json"
        assert doc["requests_total"] > 0
        assert doc["sustained_rps"] > 0
        assert set(doc["iterations"]) == {"single", "faulted"}
        assert all(count > 0 for count in doc["iterations"].values())
        assert doc["latency_ms"]["p50"] <= doc["latency_ms"]["p99"]

    def test_leak_sentinels_reported_clean(self, report):
        result, _ = report
        leaks = result.doc["leaks"]
        assert leaks["threads"] == []
        assert leaks["fd_delta"] <= 0
        assert leaks["socket_delta"] <= 0

    def test_render_is_human_readable(self, report):
        result, _ = report
        text = result.render()
        assert "req/s sustained" in text
        assert "single" in text

    def test_outputs_were_bit_identical(self, report):
        # Drift would have surfaced as a SoakCheckError failure; a
        # passing run with >1 iteration per scenario proves each
        # repeat matched its frozen reference.
        result, _ = report
        assert result.ok


class TestElasticScenario:
    def test_churn_streams_through_the_joined_worker(self):
        """The warm-up iteration, a plain one, then one churn: the
        joined 4-core member gets stages 0 and 6 from the water-filled
        re-plan and serves all three requests on each."""
        options = SoakOptions(duration=1.0, seed=7,
                              scenarios=("elastic",))
        scenario = _ElasticScenario(
            options, Observability(enabled=True, tracer=NULL_TRACER)
        )
        scenario.setup()
        try:
            for iteration in range(3):
                assert scenario.run_once(iteration) == 3
                scenario.iterations += 1
        finally:
            scenario.teardown()
        assert scenario.joins == scenario.drains == 1
        assert scenario.joined_items >= 2 * 3
