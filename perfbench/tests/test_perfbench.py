"""Self-tests of the benchmark (not part of tier 1).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import harness
import run
from harness import Op, SpanLog, TooFewSamples, percentile, self_times

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- BENCHMARK.json ----------------------------------------------------

def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for spec in BENCHMARK["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
        names.append(spec["name"])
    for spec in BENCHMARK["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
        names.append(spec["name"])
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = [s for s in BENCHMARK["end_to_end"] if s["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        s["bound"] for s in BENCHMARK["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# -- percentile helper -------------------------------------------------

def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(TooFewSamples):
        percentile(range(1, 100), 90)       # 99 samples: 9 beyond
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(TooFewSamples):
        percentile(range(1, 20), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    assert percentile([3, 1, 2], 90, min_beyond=0) == 3


# -- spans -------------------------------------------------------------

def span(ident, parent, start, end):
    return {"id": ident, "name": "s", "trace": "t", "parent": parent,
            "start": start, "end": end, "attrs": {}}


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),      # overlaps span 1: [1, 6] covered once
        span(3, 0, 8.0, 12.0),     # clipped to the parent's end
        span(4, 1, 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_span_log_records_parent_and_trace(tmp_path):
    log = SpanLog()
    with log.span("outer", "op0") as outer:
        with log.span("inner", "op0", outer["id"], stage=2):
            pass
    assert [s["parent"] for s in log.spans] == [None, 0]
    assert log.spans[1]["attrs"] == {"stage": 2}
    assert len(log.per_trace_sum("inner")) == 1
    log.dump(tmp_path / "trace.json", {"workload": "x"})
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["workload"] == "x" and "self_s" in doc["spans"][0]


# -- scoring -----------------------------------------------------------

class FakeInputs:
    first_timed = 0
    reference_probabilities = np.array([0.25, 0.75])

    def take(self, start, count):
        return [np.zeros(2)] * count

    def reference(self, index):
        return 1, self.reference_probabilities


class FakeWorkload:
    """Twelve ops: one wrong output, one refused, ten good."""

    name = "fake"
    samples_per_op = 1
    warmup_inputs = 0

    def inputs(self, seed):
        return FakeInputs()

    def setup(self, inputs):
        return None

    def teardown(self, state):
        pass

    def pids(self, state):
        return {}

    def twin(self, tag):
        class Twin:
            def run(self, x):
                return type("Outcome", (), {
                    "probabilities":
                        FakeInputs.reference_probabilities})()
        return Twin()

    def window(self, state, inputs, seconds, max_ops):
        good = (1, FakeInputs.reference_probabilities)
        ops = [Op(first_input=i, latency_s=0.01, outputs=[good])
               for i in range(12)]
        ops[9].outputs = [(0, np.array([0.75, 0.25]))]   # past the twin check
        ops[5] = Op(first_input=5, error="refused: HTTP 503")
        return ops, 1.0


def test_wrong_and_refused_ops_are_counted_as_failed():
    result = run.end_to_end(FakeWorkload(), seed=0, seconds=1.0,
                            smoke=True)
    assert result["attempted"] == 12
    assert len(result["failures"]) == 2
    assert any("wrong output" in text for text in result["failures"])
    assert any("refused" in text for text in result["failures"])
    assert result["samples"] == 10      # failed ops give no throughput
    assert result["values"]["throughput_per_s"] == pytest.approx(10.0)


def test_probabilities_within_tolerance_pass_and_beyond_fail():
    inputs = FakeInputs()
    near = Op(first_input=0, latency_s=1.0,
              outputs=[(1, np.array([0.255, 0.745]))])
    far = Op(first_input=1, latency_s=1.0,
             outputs=[(1, np.array([0.27, 0.73]))])
    failures = harness.score_ops([near, far], inputs.reference)
    assert near.error is None and far.latency_s is None
    assert len(failures) == 1


def test_a_bit_flip_against_the_twin_is_a_failed_op():
    workload, inputs = FakeWorkload(), FakeInputs()
    nudged = FakeInputs.reference_probabilities + np.array([1e-12, 0])
    ops = [Op(first_input=0, latency_s=1.0, outputs=[(1, nudged)])]
    run.check_twin(workload, inputs, ops)
    assert "bit-identical" in ops[0].error


# -- compare.py --------------------------------------------------------

def result_set(p50s, failed=0):
    return [{"workload": "fc_session", "seed": i, "trace": 0,
             "attempted": 100, "failed": failed,
             "metrics": {"latency_ms_p50": {"value": v, "unit": "ms"}}}
            for i, v in enumerate(p50s)]


P50 = next(s for s in BENCHMARK["end_to_end"]
           if s["name"] == "latency_ms_p50")


def test_compare_verdicts():
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    slower = [v * (1 + 2 * P50["bound"]) for v in steady]
    wide = [70, 130, 80, 120, 75, 125, 100, 60, 140, 100]
    values = lambda runs: compare.values(  # noqa: E731
        runs, "fc_session", 0, "latency_ms_p50")
    assert compare.verdict(values(result_set(steady)),
                           values(result_set(steady)), P50)[0] == "ok"
    word, worse = compare.verdict(values(result_set(steady)),
                                  values(result_set(slower)), P50)
    assert word == "regressed"
    assert worse == pytest.approx(2 * P50["bound"])
    assert compare.verdict(values(result_set(steady)),
                           values(result_set(wide)), P50)[0] \
        == "unresolved"
    faster = dict(P50, better="higher")
    assert compare.verdict([10.0] * 5, [5.0] * 5, faster)[0] \
        == "regressed"
    assert compare.spread([1.0, 2.0]) is None
    # A slower machine during B turns "regressed" into "unresolved",
    # but never for memory.
    assert compare.verdict(values(result_set(steady)),
                           values(result_set(slower)), P50,
                           slowdown=0.3)[0] == "unresolved"
    memory = dict(P50, unit="MB")
    assert compare.verdict(values(result_set(steady)),
                           values(result_set(slower)), memory,
                           slowdown=0.3)[0] == "regressed"


def test_machine_slowdown_reads_the_canary_of_each_set():
    def runs(canary):
        return [dict(run, env={"machine_canary_ms": canary})
                for run in result_set([100.0] * 4)]
    assert compare.machine_slowdown(runs(20.0), runs(26.0),
                                    "fc_session") == pytest.approx(0.3)
    assert compare.machine_slowdown(result_set([1.0]), runs(26.0),
                                    "fc_session") == 0.0


def test_compare_exit_code(tmp_path):
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    for name, runs in (("a", result_set(steady)),
                       ("b", result_set([v * (1 + 2 * P50["bound"])
                                         for v in steady])),
                       ("c", result_set(steady, failed=1))):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"schema": "perfbench/1", "runs": runs}))
    a, b, c = (str(tmp_path / f"{n}.json") for n in "abc")
    assert compare.main([a, a]) == 0
    assert compare.main([a, b]) == 1
    assert compare.main([a, c]) == 1      # a failed op is a regression


# -- the benchmark itself, end to end ----------------------------------

def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=str(cwd), text=True,
        capture_output=True, timeout=170)


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_named_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--trace",
                 str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        entry = doc["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float))
        # Every metric is also printed by name with its unit.
        assert re.search(rf"{re.escape(spec['name'])}\s+\S+ "
                         rf"{re.escape(spec['unit'])}\n", done.stdout)
    if not trace:
        assert all(entry["value"] > 0
                   for entry in doc["metrics"].values())
    else:
        assert (BENCH_DIR / "out" / f"trace-{workload}.json").exists()
        layers = {name.split(".")[0]
                  for name, entry in doc["metrics"].items()
                  if entry["value"]}
        if workload.startswith("fc_"):
            assert not layers & {"net", "serve", "stream", "planner"}
        assert {"crypto", "protocol"} <= layers


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    done = bench("--workload", "fc_session", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
