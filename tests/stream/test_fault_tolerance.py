"""Failure-injection tests for the stream runtime.

Covers the layered fault-tolerance machinery end to end: stand-alone
worker retry semantics (fail-loud), and the full pipeline under
scripted :class:`FaultPlan` injection — transient recovery with
bit-identical results, dead-lettering of poisoned requests and blown
deadlines, supervisor crash-restarts, and orderly fatal shutdown with
no leaked threads.
"""

import threading
import time

import pytest

from repro.config import RuntimeConfig
from repro.errors import StageFailedError, StreamError
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.stream import FaultPlan, Pipeline, RetryPolicy
from repro.stream.channel import Channel, ChannelClosed
from repro.stream.retry import (
    REASON_DEADLINE,
    REASON_EXHAUSTED,
    REASON_PERMANENT,
)
from repro.stream.worker import StageWorker

#: A fast backoff policy so fault-matrix tests stay quick.
FAST_RETRIES = RetryPolicy(max_retries=3, base_delay=0.002,
                           max_delay=0.02)


class FlakyExecutor:
    """Fails the first ``failures`` calls for each item, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self._attempts: dict[int, int] = {}

    def process(self, item):
        seen = self._attempts.get(item, 0)
        self._attempts[item] = seen + 1
        if seen < self.failures:
            raise RuntimeError(f"transient failure #{seen + 1}")
        return item * 10


def drive(worker, items):
    worker.start()
    for item in items:
        worker.inbound.put(item)
    worker.inbound.close()
    results = []
    while True:
        try:
            results.append(worker.outbound.get(timeout=2))
        except ChannelClosed:
            break
    return results


class TestStandaloneWorkerRetries:
    """Unsupervised workers keep the historical fail-loud posture."""

    def test_transient_failures_recovered(self):
        executor = FlakyExecutor(failures=2)
        worker = StageWorker("flaky", executor, Channel(), Channel(),
                             retry_policy=RetryPolicy.immediate(3))
        results = drive(worker, [1, 2, 3])
        worker.join(timeout=2)
        assert results == [10, 20, 30]
        assert worker.retries == 6  # two retries per item
        assert worker.items_processed == 3

    def test_persistent_failure_raises(self):
        executor = FlakyExecutor(failures=10)
        worker = StageWorker("doomed", executor, Channel(), Channel(),
                             retry_policy=RetryPolicy.immediate(2))
        results = drive(worker, [1])
        assert results == []
        with pytest.raises(StageFailedError, match="transient"):
            worker.join(timeout=2)

    def test_zero_retries_fails_immediately(self):
        executor = FlakyExecutor(failures=1)
        worker = StageWorker("strict", executor, Channel(), Channel(),
                             retry_policy=RetryPolicy.immediate(0))
        drive(worker, [1])
        with pytest.raises(StageFailedError):
            worker.join(timeout=2)

    def test_negative_retries_rejected(self):
        with pytest.raises(StreamError, match="non-negative"):
            RetryPolicy.immediate(-1)

    def test_backoff_policy_sleeps_and_counts(self):
        executor = FlakyExecutor(failures=2)
        worker = StageWorker(
            "backoff", executor, Channel(), Channel(),
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.01,
                                     jitter=0.0),
        )
        start = time.perf_counter()
        results = drive(worker, [1])
        elapsed = time.perf_counter() - start
        worker.join(timeout=2)
        assert results == [10]
        assert worker.retries == 2
        assert worker.backoff_events == 2
        assert elapsed >= 0.01 + 0.02  # the two backoff sleeps


def _stream_threads():
    prefixes = ("repro-stage-", "repro-stream-supervisor",
                "repro-stream-source")
    return [t.name for t in threading.enumerate()
            if t.name.startswith(prefixes)]


def assert_no_stream_threads():
    for _ in range(100):
        if not _stream_threads():
            return
        time.sleep(0.02)
    raise AssertionError(f"leaked stream threads: {_stream_threads()}")


@pytest.fixture(scope="module")
def streamed_baseline(request):
    """Fault-free baseline predictions for the first 4 test samples."""
    trained = request.getfixturevalue("trained_breast")
    dataset = request.getfixturevalue("breast_dataset")
    inputs = list(dataset.test_x[:4])
    pipeline, _ = _build_pipeline(trained)
    stats = pipeline.run_stream(inputs)
    preds = [r.prediction
             for r in sorted(stats.results, key=lambda r: r.request_id)]
    return inputs, preds


def _build_pipeline(trained, **kwargs):
    config = RuntimeConfig(key_size=128, seed=91)
    model_provider = ModelProvider(trained, decimals=3, config=config)
    data_provider = DataProvider(value_decimals=3, config=config)
    cluster = ClusterSpec.homogeneous(1, 1, 2)
    plan = allocate_even(model_provider.stages, cluster).plan
    kwargs.setdefault("retry_policy", FAST_RETRIES)
    return (Pipeline(model_provider, data_provider, plan, **kwargs),
            plan)


class TestPipelineFaultTolerance:
    def test_pipeline_with_retries_noop_when_healthy(
            self, trained_breast, streamed_baseline):
        inputs, expected = streamed_baseline
        pipeline, plan = _build_pipeline(
            trained_breast, retry_policy=RetryPolicy.immediate(2))
        stats = pipeline.run_stream(inputs)
        assert len(stats.results) == len(inputs)
        assert stats.stage_retries == [0] * len(plan.stages)
        assert stats.dead_letters == []
        assert stats.stage_restarts == [0] * len(plan.stages)

    def test_transient_faults_recover_bit_identically(
            self, trained_breast, streamed_baseline):
        """Seeded transient-only plan: same predictions as the
        fault-free run, nonzero retries and backoff events."""
        inputs, expected = streamed_baseline
        plan = FaultPlan.random_transient(
            seed=7, num_requests=len(inputs), num_stages=6, rate=0.3
        )
        assert plan.only_transient() and len(plan) > 0
        pipeline, _ = _build_pipeline(trained_breast, fault_plan=plan)
        stats = pipeline.run_stream(inputs)
        preds = [r.prediction for r in
                 sorted(stats.results, key=lambda r: r.request_id)]
        assert preds == expected
        assert stats.dead_letters == []
        assert stats.total_retries > 0
        assert stats.total_backoff_events > 0
        assert_no_stream_threads()

    @pytest.mark.slow
    def test_transient_fault_matrix_property(self, trained_breast,
                                             streamed_baseline):
        """Property-style: ANY seeded transient-only plan within the
        retry budget yields bit-identical predictions."""
        inputs, expected = streamed_baseline
        for seed in (1, 2, 3):
            plan = FaultPlan.random_transient(
                seed=seed, num_requests=len(inputs), num_stages=6,
                rate=0.25, max_count=FAST_RETRIES.max_retries,
            )
            pipeline, _ = _build_pipeline(trained_breast,
                                          fault_plan=plan)
            stats = pipeline.run_stream(inputs)
            preds = [r.prediction for r in
                     sorted(stats.results, key=lambda r: r.request_id)]
            assert preds == expected, f"seed {seed} diverged"
            assert stats.dead_letters == []
            if plan:
                assert stats.total_retries > 0

    def test_permanent_fault_dead_letters_exactly_that_request(
            self, trained_breast, streamed_baseline):
        inputs, expected = streamed_baseline
        victim = 1
        pipeline, _ = _build_pipeline(
            trained_breast,
            fault_plan=FaultPlan.parse(
                f"permanent:stage=2:request={victim}"
            ),
        )
        stats = pipeline.run_stream(inputs)
        completed = sorted(r.request_id for r in stats.results)
        assert completed == [i for i in range(len(inputs))
                             if i != victim]
        [letter] = stats.dead_letters
        assert letter.request_id == victim
        assert letter.reason == REASON_PERMANENT
        assert letter.stage == 2
        assert letter.attempts == 1
        assert "injected permanent fault" in letter.error
        # surviving predictions are unaffected
        for result in stats.results:
            assert result.prediction == expected[result.request_id]
        assert "dead-lettered" in stats.utilization_report()
        assert f"request {victim}" in stats.failure_report()
        assert_no_stream_threads()

    def test_exhausted_retries_dead_letter(self, trained_breast,
                                           streamed_baseline):
        inputs, _ = streamed_baseline
        count = FAST_RETRIES.max_retries + 5  # beyond the budget
        pipeline, _ = _build_pipeline(
            trained_breast,
            fault_plan=FaultPlan.parse(
                f"transient:stage=0:request=2:count={count}"
            ),
        )
        stats = pipeline.run_stream(inputs)
        [letter] = stats.dead_letters
        assert letter.request_id == 2
        assert letter.reason == REASON_EXHAUSTED
        assert letter.attempts == FAST_RETRIES.max_retries + 1
        assert len(stats.results) == len(inputs) - 1

    def test_deadline_dead_letters_with_reason(self, trained_breast,
                                               streamed_baseline):
        inputs, _ = streamed_baseline
        pipeline, _ = _build_pipeline(trained_breast,
                                      request_deadline=1e-6)
        stats = pipeline.run_stream(inputs)
        assert stats.results == []
        assert len(stats.dead_letters) == len(inputs)
        assert all(d.reason == REASON_DEADLINE
                   for d in stats.dead_letters)
        assert sorted(d.request_id for d in stats.dead_letters) == \
            list(range(len(inputs)))
        assert_no_stream_threads()

    def test_crash_is_absorbed_by_supervisor_restart(
            self, trained_breast, streamed_baseline):
        inputs, expected = streamed_baseline
        pipeline, _ = _build_pipeline(
            trained_breast,
            fault_plan=FaultPlan.parse("crash:stage=2:request=0"),
            restart_budget=2,
        )
        stats = pipeline.run_stream(inputs)
        preds = [r.prediction for r in
                 sorted(stats.results, key=lambda r: r.request_id)]
        assert preds == expected  # no request lost
        assert stats.dead_letters == []
        assert stats.stage_restarts[2] == 1
        assert stats.total_restarts == 1
        assert "restarts=1" in stats.utilization_report()
        assert_no_stream_threads()

    def test_exhausted_restart_budget_is_fatal_but_clean(
            self, trained_breast, streamed_baseline):
        inputs, _ = streamed_baseline
        pipeline, _ = _build_pipeline(
            trained_breast,
            fault_plan=FaultPlan.parse(
                "crash:stage=2:request=0:count=10"
            ),
            restart_budget=1,
        )
        with pytest.raises(StageFailedError,
                           match="exhausted its restart budget"):
            pipeline.run_stream(inputs)
        assert_no_stream_threads()

    def test_slow_fault_delays_but_completes(self, trained_breast,
                                             streamed_baseline):
        inputs, expected = streamed_baseline
        pipeline, _ = _build_pipeline(
            trained_breast,
            fault_plan=FaultPlan.parse(
                "slow:stage=1:request=0:delay=0.2;"
                "stall:stage=3:request=1:delay=0.1"
            ),
        )
        stats = pipeline.run_stream(inputs)
        preds = [r.prediction for r in
                 sorted(stats.results, key=lambda r: r.request_id)]
        assert preds == expected
        assert stats.dead_letters == []
