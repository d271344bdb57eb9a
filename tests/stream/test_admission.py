"""Admission waits for room before it encrypts.

A request's deadline runs from its ``enqueue_time``, stamped right
after encryption.  Admission encrypts a request only once the source
channel can take it, so no request's clock runs while the pipeline
cannot start it.
"""

import threading

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import StreamError
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.scaling.parameter_scaling import round_parameters
from repro.stream import FaultPlan, Pipeline
from repro.stream.channel import Channel


class TestDeadlineStartsAtAdmission:
    @pytest.mark.timeout(120)
    def test_requests_queued_behind_a_slow_stage_keep_their_deadline(
            self, trained_breast, breast_dataset):
        """Stage 0 serves requests 0–3 for d = 0.4 s each, under a
        1.0 s deadline (between 2d and 3d).  Each request is stamped
        when stage 0 takes its predecessor, so it reaches stage 1
        about 2d after its stamp and completes.  Stamping a request
        while the previous one still waits in the source slot starts
        its clock one period early: requests 2 and 3 would reach
        stage 1 about 3d after their stamp and be dead-lettered."""
        config = RuntimeConfig(key_size=128, seed=91)
        model_provider = ModelProvider(trained_breast, decimals=3,
                                       config=config)
        data_provider = DataProvider(value_decimals=3, config=config)
        plan = allocate_even(model_provider.stages,
                             ClusterSpec.homogeneous(1, 1, 2)).plan
        fault_plan = FaultPlan.parse(";".join(
            f"slow:stage=0:request={request}:delay=0.4"
            for request in range(4)
        ))
        pipeline = Pipeline(model_provider, data_provider, plan,
                            fault_plan=fault_plan, request_deadline=1.0)
        inputs = list(breast_dataset.test_x[:6])
        stats = pipeline.run_stream(inputs)
        assert stats.failure_report() == "no dead-lettered requests"
        rounded = round_parameters(trained_breast, 3)
        expected = rounded.predict(np.round(np.stack(inputs), 3))
        by_id = sorted(stats.results, key=lambda r: r.request_id)
        assert [r.prediction for r in by_id] == list(expected)


class TestWaitForRoom:
    def test_returns_at_once_while_there_is_room(self):
        channel = Channel(1)
        channel.wait_for_room()
        channel.put("a")
        assert channel.approx_size() == 1

    @pytest.mark.timeout(10)
    def test_a_get_frees_the_slot_and_close_raises(self):
        channel = Channel(1)
        channel.put("a")
        woke = threading.Event()

        def waiter():
            channel.wait_for_room()
            woke.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert not woke.wait(0.1)
        assert channel.get() == "a"
        assert woke.wait(5.0)
        thread.join(5.0)
        channel.put("b")
        channel.close()
        with pytest.raises(StreamError):
            channel.wait_for_room()
