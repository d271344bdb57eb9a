"""Validate the simulator against the real runtime.

DESIGN.md's substitution 1 claims the discrete-event simulator, fed a
cost model *calibrated from this interpreter's own kernels*, predicts
the real threaded runtime's behaviour.  This test measures both on the
same plan and checks they agree within a small factor.

To keep the comparison honest despite CPython's GIL (which serializes
intra-stage threads in the real runtime), the plan uses one thread per
stage, where the simulator's parallelism assumption is vacuous.
"""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.costs import CostModel
from repro.planner.plan import ClusterSpec, Plan, StageAssignment
from repro.protocol import DataProvider, ModelProvider
from repro.simulate.simulator import PipelineSimulator
from repro.stream import Pipeline

KEY_SIZE = 128


@pytest.fixture(scope="module")
def calibrated_setup(request):
    trained = request.getfixturevalue("trained_breast")
    config = RuntimeConfig(key_size=KEY_SIZE, seed=51)
    model_provider = ModelProvider(trained, decimals=3, config=config)
    data_provider = DataProvider(value_decimals=3, config=config)
    stages = model_provider.stages
    cluster = ClusterSpec.homogeneous(1, 1, 2)
    assignments = tuple(
        StageAssignment(stage.index,
                        0 if stage.index % 2 == 0 else 1, 1)
        for stage in stages
    )
    plan = Plan(cluster, tuple(stages), assignments,
                use_tensor_partitioning=True)
    cost_model = CostModel.calibrate(KEY_SIZE, samples=32)
    return model_provider, data_provider, plan, cost_model


class TestSimulatorValidation:
    def test_predicted_latency_within_factor_of_measured(
        self, calibrated_setup, breast_dataset
    ):
        model_provider, data_provider, plan, cost_model = \
            calibrated_setup
        pipeline = Pipeline(model_provider, data_provider, plan)
        stats = pipeline.run_stream(list(breast_dataset.test_x[:4]))
        measured = stats.mean_latency

        simulator = PipelineSimulator(plan, cost_model, decimals=3)
        predicted = simulator.request_latency()

        # Python-level dispatch overhead isn't in the calibrated ops,
        # so allow a generous band: the simulator must land within
        # 5x of reality in both directions (it typically lands much
        # closer; the point is order-of-magnitude validity).
        assert predicted == pytest.approx(measured, rel=4.0)
        assert 0.2 < predicted / measured < 5.0

    def test_per_stage_costs_track_reality(
        self, calibrated_setup, breast_dataset
    ):
        """Per-stage predicted compute must track the measured busy
        time: within 5x for every stage that does non-trivial work,
        and the heavy stages (both FC affines) identified correctly."""
        model_provider, data_provider, plan, cost_model = \
            calibrated_setup
        requests = 4
        pipeline = Pipeline(model_provider, data_provider, plan)
        # One request in flight at a time: with several, a stage's busy
        # time would include its GIL waits behind the other stage
        # threads, which the model does not (and should not) price.
        busy = [0.0] * len(plan.stages)
        for x in breast_dataset.test_x[:requests]:
            stats = pipeline.run_stream([x])
            busy = [total + seconds for total, seconds
                    in zip(busy, stats.stage_busy_seconds)]
        measured = [seconds / requests for seconds in busy]

        simulator = PipelineSimulator(plan, cost_model, decimals=3)
        predicted = [cost.compute for cost in simulator.costs]
        floor = max(measured) * 0.05
        for index, (real, model) in enumerate(zip(measured,
                                                  predicted)):
            if real < floor:
                continue
            ratio = model / real
            assert 0.2 < ratio < 5.0, (
                f"stage {index}: predicted {model:.4f}s vs measured "
                f"{real:.4f}s"
            )
        # the two heavy stages are the same in both views — except
        # when the contested stages are a measured near-tie, where the
        # ranking legitimately flips with scheduler noise
        top2_measured = set(np.argsort(measured)[-2:])
        top2_predicted = set(np.argsort(predicted)[-2:])
        if top2_measured != top2_predicted:
            contested = sorted(measured[i]
                               for i in top2_measured ^ top2_predicted)
            assert contested[-1] <= contested[0] * 1.5, (
                f"heavy stages disagree beyond a near-tie: measured "
                f"top2 {sorted(top2_measured)} vs predicted "
                f"{sorted(top2_predicted)} ({measured=})"
            )
