"""Unit tests for the fault-injection framework and retry policy."""

import random

import pytest

from repro.errors import (
    PoisonedRequestError,
    ProtocolError,
    StreamError,
    TransientStageError,
    WorkerCrashError,
)
from repro.stream.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.stream.retry import (
    REASON_DEADLINE,
    DeadLetter,
    RetryPolicy,
)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(StreamError):
            FaultSpec(FaultKind.TRANSIENT, stage=-1, request_id=0)
        with pytest.raises(StreamError):
            FaultSpec(FaultKind.TRANSIENT, stage=0, request_id=-1)
        with pytest.raises(StreamError):
            FaultSpec(FaultKind.TRANSIENT, stage=0, request_id=0,
                      count=0)
        with pytest.raises(StreamError):
            FaultSpec(FaultKind.SLOW, stage=0, request_id=0,
                      delay=-1.0)


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "transient:stage=0:request=1:count=2;"
            "permanent:stage=2:request=3;"
            "slow:stage=1:request=0:delay=0.25"
        )
        assert len(plan) == 3
        kinds = {spec.kind for spec in plan.specs}
        assert kinds == {FaultKind.TRANSIENT, FaultKind.PERMANENT,
                         FaultKind.SLOW}
        [transient] = plan.lookup(0, 1)
        assert transient.count == 2
        [slow] = plan.lookup(1, 0)
        assert slow.delay == 0.25
        assert plan.lookup(5, 5) == []

    def test_parse_rejects_garbage(self):
        with pytest.raises(StreamError, match="unknown fault kind"):
            FaultPlan.parse("explode:stage=0:request=0")
        with pytest.raises(StreamError, match="unknown fault field"):
            FaultPlan.parse("transient:stage=0:request=0:bogus=1")
        with pytest.raises(StreamError, match="needs stage"):
            FaultPlan.parse("transient:request=0")
        with pytest.raises(StreamError, match="bad value"):
            FaultPlan.parse("transient:stage=x:request=0")

    def test_parse_empty_is_empty(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" ; ")

    def test_random_transient_is_deterministic(self):
        a = FaultPlan.random_transient(seed=9, num_requests=8,
                                       num_stages=4, rate=0.5)
        b = FaultPlan.random_transient(seed=9, num_requests=8,
                                       num_stages=4, rate=0.5)
        assert a.specs == b.specs
        c = FaultPlan.random_transient(seed=10, num_requests=8,
                                       num_stages=4, rate=0.5)
        assert a.specs != c.specs

    def test_random_transient_is_transient_only(self):
        plan = FaultPlan.random_transient(seed=3, num_requests=6,
                                          num_stages=3, rate=0.9)
        assert plan.only_transient()
        assert all(s.kind is FaultKind.TRANSIENT for s in plan.specs)

    def test_stage_has_faults(self):
        plan = FaultPlan.parse("permanent:stage=2:request=0")
        assert plan.stage_has_faults(2)
        assert not plan.stage_has_faults(1)
        assert not plan.only_transient()

    def test_describe(self):
        plan = FaultPlan.parse("transient:stage=1:request=2:count=3")
        assert "transient stage=1 request=2 count=3" in plan.describe()
        assert FaultPlan().describe() == "no faults"


class _Item:
    def __init__(self, request_id):
        self.request_id = request_id
        self.fault = None


class _Echo:
    def __init__(self):
        self.calls = 0

    def process(self, item):
        self.calls += 1
        return item


class TestFaultInjector:
    def test_transient_fires_count_times_then_passes(self):
        plan = FaultPlan.parse("transient:stage=0:request=7:count=2")
        injector = FaultInjector(_Echo(), 0, plan)
        item = _Item(7)
        for _ in range(2):
            with pytest.raises(TransientStageError):
                injector.process(item)
        assert injector.process(item) is item
        assert injector.injected_faults == 2

    def test_permanent_fires_every_time(self):
        plan = FaultPlan.parse("permanent:stage=1:request=0")
        injector = FaultInjector(_Echo(), 1, plan)
        for _ in range(3):
            with pytest.raises(PoisonedRequestError):
                injector.process(_Item(0))

    def test_crash_fires_count_times(self):
        plan = FaultPlan.parse("crash:stage=0:request=1:count=1")
        injector = FaultInjector(_Echo(), 0, plan)
        with pytest.raises(WorkerCrashError):
            injector.process(_Item(1))
        assert injector.process(_Item(1)).request_id == 1

    def test_untargeted_requests_untouched(self):
        plan = FaultPlan.parse("permanent:stage=0:request=5")
        executor = _Echo()
        injector = FaultInjector(executor, 0, plan)
        injector.process(_Item(4))
        assert executor.calls == 1
        assert injector.injected_faults == 0


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(TransientStageError("x"))
        assert not policy.is_transient(PoisonedRequestError("x"))
        assert not policy.is_transient(ProtocolError("x"))
        assert policy.is_transient(RuntimeError("x"))
        strict = RetryPolicy(retry_unclassified=False)
        assert not strict.is_transient(RuntimeError("x"))
        assert strict.is_transient(TransientStageError("x"))

    def test_backoff_sequence_is_exponential_and_capped(self):
        policy = RetryPolicy(max_retries=10, base_delay=0.1,
                             multiplier=2.0, max_delay=0.5,
                             jitter=0.0)
        delays = [policy.backoff_delay(k) for k in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        rng = random.Random(0)
        for attempt in range(1, 20):
            delay = policy.backoff_delay(min(attempt, 3), rng)
            base = min(policy.max_delay,
                       0.1 * 2.0 ** (min(attempt, 3) - 1))
            assert base * 0.5 <= delay <= base * 1.5

    def test_jitter_deterministic_per_seed(self):
        policy = RetryPolicy()
        a = [policy.backoff_delay(k, random.Random(5))
             for k in (1, 2, 3)]
        b = [policy.backoff_delay(k, random.Random(5))
             for k in (1, 2, 3)]
        assert a == b

    def test_jitter_seed_gives_deterministic_implicit_stream(self):
        """Two policies with the same jitter_seed draw identical
        implicit jitter without any caller-supplied RNG."""
        first = RetryPolicy(jitter_seed=42)
        second = RetryPolicy(jitter_seed=42)
        a = [first.backoff_delay(k) for k in (1, 2, 3, 1, 2)]
        b = [second.backoff_delay(k) for k in (1, 2, 3, 1, 2)]
        assert a == b
        other = RetryPolicy(jitter_seed=43)
        assert [other.backoff_delay(k) for k in (1, 2, 3, 1, 2)] != a

    def test_jitter_seed_stream_is_one_sequence_not_reset(self):
        """The policy-owned RNG is cached: successive implicit draws
        advance one stream instead of re-seeding each call."""
        policy = RetryPolicy(jitter_seed=7)
        assert policy.jitter_rng() is policy.jitter_rng()
        draws = [policy.backoff_delay(1) for _ in range(10)]
        # Re-seeding per call would make every draw identical.
        assert len(set(draws)) > 1
        # Replaying from a fresh policy reproduces the whole sequence.
        replay = RetryPolicy(jitter_seed=7)
        assert [replay.backoff_delay(1) for _ in range(10)] == draws

    def test_no_jitter_seed_skips_jitter_never_global_rng(self):
        """Without a seed or explicit RNG the delay is the bare
        exponential value — the module-global RNG is never touched, so
        unseeded runs are still deterministic."""
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        assert policy.jitter_rng() is None
        random.seed(0)
        before = random.getstate()
        delays = [policy.backoff_delay(k) for k in (1, 2, 3)]
        assert random.getstate() == before
        assert delays == [0.1, 0.2, 0.4]

    def test_explicit_rng_wins_over_jitter_seed(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5,
                             jitter_seed=11)
        explicit = policy.backoff_delay(1, random.Random(99))
        expected = 0.1 * random.Random(99).uniform(0.5, 1.5)
        assert explicit == pytest.approx(expected)

    def test_immediate_has_no_backoff(self):
        policy = RetryPolicy.immediate(4)
        assert policy.max_retries == 4
        assert policy.backoff_delay(3, random.Random(0)) == 0.0

    def test_validation(self):
        with pytest.raises(StreamError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(StreamError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(StreamError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(StreamError):
            RetryPolicy(base_delay=-0.1)
        policy = RetryPolicy()
        with pytest.raises(StreamError):
            policy.backoff_delay(0)


class TestDeadLetter:
    def test_describe(self):
        letter = DeadLetter(request_id=3, stage=2,
                            reason=REASON_DEADLINE, attempts=0)
        text = letter.describe()
        assert "request 3" in text
        assert "deadline-exceeded" in text
        assert "stage 2" in text
