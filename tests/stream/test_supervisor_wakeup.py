"""The supervisor wakes on worker exit, not on its poll tick.

Every stage worker signals its exit (completion or crash) on its own
thread, so a stream returns as soon as its last worker is done and a
crashed stage is restarted at once.  ``poll_interval`` is only the
fallback: with it set to 10 s these streams must still finish in well
under a second or two.
"""

import functools
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
import repro.stream.pipeline as pipeline_module
from repro.stream import FaultPlan, Pipeline
from repro.stream.channel import Channel
from repro.stream.supervisor import Supervisor
from repro.stream.worker import StageWorker

SLOW_TICK = 10.0


@pytest.fixture()
def slow_tick(monkeypatch):
    monkeypatch.setattr(
        pipeline_module, "Supervisor",
        functools.partial(Supervisor, poll_interval=SLOW_TICK),
    )


def _pipeline(model, **kwargs):
    config = RuntimeConfig(key_size=128, seed=5)
    model_provider = ModelProvider(model, decimals=2, config=config)
    data_provider = DataProvider(value_decimals=2, config=config)
    plan = allocate_even(model_provider.stages,
                         ClusterSpec.homogeneous(1, 1, 2)).plan
    return Pipeline(model_provider, data_provider, plan, **kwargs)


def _input():
    return np.random.default_rng(3).uniform(0, 1, (1, 8, 8))


class TestWakeOnExit:
    def test_one_request_stream_ends_with_its_workers(
            self, tiny_conv_model, slow_tick):
        pipeline = _pipeline(tiny_conv_model)
        start = time.monotonic()
        stats = pipeline.run_stream([_input()])
        elapsed = time.monotonic() - start
        assert len(stats.results) == 1
        assert elapsed < 2.0, (
            f"stream took {elapsed:.2f}s: the supervisor waited for "
            "its poll tick instead of the workers' exit signal")

    def test_crashed_stage_restarts_promptly(self, tiny_conv_model,
                                             slow_tick):
        pipeline = _pipeline(
            tiny_conv_model,
            fault_plan=FaultPlan.parse("crash:stage=2:request=0"),
        )
        start = time.monotonic()
        stats = pipeline.run_stream([_input()])
        elapsed = time.monotonic() - start
        assert stats.total_restarts == 1
        assert len(stats.results) == 1
        assert elapsed < 2.0, (
            f"crash-restart took {elapsed:.2f}s: the restart waited "
            "for the poll tick")


class _Echo:
    def process(self, item):
        return item


class TestExitSignal:
    def test_finalized_worker_is_done_before_its_thread_returns(self):
        """The exit hook runs on the worker's own thread after
        finalize(): the worker must already count as not alive there,
        or a supervisor sweeping on that signal would miss it."""
        seen = {}
        inbound, outbound = Channel(2), Channel(2)
        worker = StageWorker("stage-0", _Echo(), inbound, outbound)

        def on_exit():
            seen["alive"] = worker.is_alive()
            seen["completed"] = worker.completed
            seen["outbound_closed"] = outbound._closed

        worker.on_exit = on_exit
        worker.start()
        inbound.close()
        worker.join(timeout=5.0)
        assert seen == {"alive": False, "completed": True,
                        "outbound_closed": True}

    def test_supervisor_join_returns_on_exit_not_on_tick(self):
        channels = [Channel(2), Channel(2)]
        worker = StageWorker("stage-0", _Echo(), channels[0],
                             channels[1], dead_letter=True,
                             stage_index=0)
        supervisor = Supervisor([worker], channels,
                                poll_interval=SLOW_TICK)
        supervisor.start()
        start = time.monotonic()
        channels[0].close()
        supervisor.join(timeout=SLOW_TICK / 2)
        assert time.monotonic() - start < 2.0
