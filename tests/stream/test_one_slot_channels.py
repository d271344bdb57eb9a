"""One-slot stage hand-off: the in-flight bound and visible backpressure.

Every channel a :class:`Pipeline` builds holds one waiting item, and
admission encrypts a request only once the source has room, so a
stalled stream holds exactly 2·S admitted-but-undrained requests (S
stages in service, S one-slot inboxes), and a stage upstream of a
slower one spends the difference blocked in its forward — which
``stage_blocked_seconds`` and the ``stream_stage_blocked_seconds``
counter record.
"""

import threading
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.observability import Observability
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.scaling.parameter_scaling import round_parameters
from repro.stream import FaultPlan, Pipeline
from repro.stream.executors import build_executors


def _parties(trained):
    config = RuntimeConfig(key_size=128, seed=91)
    model_provider = ModelProvider(trained, decimals=3, config=config)
    data_provider = DataProvider(value_decimals=3, config=config)
    cluster = ClusterSpec.homogeneous(1, 1, 2)
    plan = allocate_even(model_provider.stages, cluster).plan
    model_provider.register_public_key(data_provider.public_key)
    return model_provider, data_provider, plan


class _Gate:
    """Holds request 0 inside its stage until ``release`` is set."""

    def __init__(self, executor):
        self.executor = executor
        self.release = threading.Event()

    def process(self, item):
        if item.request_id == 0:
            self.release.wait(60.0)
        return self.executor.process(item)


class TestInFlightBound:
    @pytest.mark.timeout(120)
    def test_a_stalled_last_stage_admits_at_most_2s(
            self, trained_breast, breast_dataset, monkeypatch):
        """With the last stage holding request 0, nothing drains, so
        every request admitted is in flight.  Admission must stop at
        exactly 2·S: no request is encrypted while the source is full
        (encrypting first held a (2·S + 1)-th, and 8-slot channels let
        all 4·S inputs in)."""
        model_provider, data_provider, plan = _parties(trained_breast)
        executors = build_executors(model_provider, data_provider, plan)
        gate = _Gate(executors[-1])
        executors[-1] = gate
        stages = len(executors)
        admitted = []
        encrypt = data_provider.encrypt_input

        def counting_encrypt(raw):
            admitted.append(1)
            return encrypt(raw)

        monkeypatch.setattr(data_provider, "encrypt_input",
                            counting_encrypt)
        pipeline = Pipeline(model_provider, data_provider, plan,
                            executors=executors)
        inputs = [breast_dataset.test_x[i % 8]
                  for i in range(4 * stages)]
        outcome = {}
        runner = threading.Thread(
            target=lambda: outcome.update(
                stats=pipeline.run_stream(inputs)),
            daemon=True,
        )
        runner.start()
        try:
            deadline = time.monotonic() + 60.0
            while (len(admitted) < 2 * stages
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            # Give a deeper queue time to show itself before reading.
            time.sleep(0.3)
            held = len(admitted)
        finally:
            gate.release.set()
            runner.join(90.0)
        assert not runner.is_alive()
        assert held == 2 * stages
        stats = outcome["stats"]
        assert len(stats.results) == len(inputs)
        rounded = round_parameters(trained_breast, 3)
        expected = rounded.predict(np.round(np.stack(inputs), 3))
        by_id = sorted(stats.results, key=lambda r: r.request_id)
        assert [r.prediction for r in by_id] == list(expected)


class TestBlockedSeconds:
    def test_slow_stage_blocks_its_upstream_neighbour(
            self, trained_breast, breast_dataset):
        """Stage k serves requests 0–2 for 0.3 s each, so stage k−1
        cannot hand request 4 over until 0.9 s after request 0: with
        one slot it spends most of that blocked in its forward."""
        slow = 2
        model_provider, data_provider, plan = _parties(trained_breast)
        fault_plan = FaultPlan.parse(";".join(
            f"slow:stage={slow}:request={request}:delay=0.3"
            for request in range(3)
        ))
        obs = Observability(enabled=True)
        pipeline = Pipeline(model_provider, data_provider, plan,
                            fault_plan=fault_plan, obs=obs)
        stats = pipeline.run_stream(list(breast_dataset.test_x[:6]))
        assert not stats.dead_letters
        assert len(stats.stage_blocked_seconds) == len(plan.stages)
        assert stats.stage_blocked_seconds[slow - 1] >= 0.3
        for stage, blocked in enumerate(stats.stage_blocked_seconds):
            counter = obs.registry.counter(
                "stream_stage_blocked_seconds", stage=str(stage))
            assert counter.value == pytest.approx(blocked)
        row = stats.utilization_report().splitlines()[slow]
        assert row.startswith(f"  stage {slow - 1}: busy")
        assert "blocked" in row
