"""Property-based failover correctness.

For any combination of model-worker crash points (including "never"),
as long as the respawn budget covers the crashes, the distributed
stream must produce results bit-identical to the single-process
pipeline with zero dead letters — worker death is invisible to the
caller.  Holds because deobfuscation is stateless (a pure function of
seed, round id, and length) and all arithmetic is integer-exact.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.net import Coordinator, WorkerServer
from repro.nn import model_zoo
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.stream import Pipeline, RetryPolicy

# Module-level lazy state instead of function-scoped fixtures:
# hypothesis reuses the test function across examples, and the model /
# reference results are example-independent anyway.
_STATE = {}


def _state():
    if not _STATE:
        model = model_zoo.conv_fc((1, 8, 8), 3, conv_channels=(2,),
                                  fc_hidden=8, seed=3,
                                  name="prop-conv")
        config = RuntimeConfig(
            key_size=128, seed=78,
            net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
        )
        rng = np.random.default_rng(5)
        inputs = [rng.uniform(0, 1, (1, 8, 8)) for _ in range(5)]

        def providers():
            return (ModelProvider(model, decimals=2, config=config),
                    DataProvider(value_decimals=2, config=config))

        plan = allocate_even(
            providers()[0].stages, ClusterSpec.homogeneous(2, 1, 2)
        ).plan
        reference = Pipeline(*providers(), plan).run_stream(inputs)
        assert not reference.dead_letters
        _STATE.update(
            providers=providers, plan=plan, inputs=inputs,
            expected={r.request_id: r.probabilities
                      for r in reference.results},
        )
    return _STATE


class _Dying(WorkerServer):
    def __init__(self, die_after, **kwargs):
        super().__init__(**kwargs)
        self.die_after = die_after
        self.tasks_done = 0

    def _run_task(self, session, envelope):
        self.tasks_done += 1
        if self.tasks_done > self.die_after:
            self.stop(abort=True)
        return super()._run_task(session, envelope)


crash_points = st.one_of(st.none(), st.integers(min_value=1,
                                                max_value=6))


class TestFailoverProperty:
    @settings(max_examples=5, deadline=None)
    @given(die0=crash_points, die1=crash_points)
    def test_covered_crashes_are_invisible(self, die0, die1):
        state = _state()
        servers = [
            WorkerServer() if die is None else _Dying(die)
            for die in (die0, die1)
        ] + [WorkerServer()]
        spawned = []

        def respawn(server_id, role):
            replacement = WorkerServer()
            spawned.append(replacement)
            return replacement.start()

        try:
            addresses = [server.start() for server in servers]
            with Coordinator(
                    *state["providers"](), state["plan"], addresses,
                    respawn=respawn, worker_restart_budget=2,
                    retry_policy=RetryPolicy(max_retries=6,
                                             base_delay=0.05),
            ) as coordinator:
                stats = coordinator.run_stream(state["inputs"])
            assert not stats.dead_letters
            assert len(stats.results) == len(state["inputs"])
            for result in stats.results:
                assert np.array_equal(
                    result.probabilities,
                    state["expected"][result.request_id],
                )
        finally:
            for server in servers + spawned:
                server.stop(abort=True)
