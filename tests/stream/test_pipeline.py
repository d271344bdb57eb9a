"""Integration tests for the threaded stream-processing runtime."""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.costs import CostModel
from repro.errors import StreamError
from repro.planner.allocation import allocate_even, \
    allocate_load_balanced
from repro.planner.plan import ClusterSpec
from repro.planner.profiling import profile_primitive_times
from repro.protocol import DataProvider, ModelProvider
from repro.scaling.parameter_scaling import round_parameters
from repro.stream import Pipeline


@pytest.fixture(scope="module")
def breast_pipeline_parts(request):
    trained = request.getfixturevalue("trained_breast")
    config = RuntimeConfig(key_size=128, seed=21)
    model_provider = ModelProvider(trained, decimals=3, config=config)
    data_provider = DataProvider(value_decimals=3, config=config)
    stages = model_provider.stages
    times = profile_primitive_times(stages, CostModel.reference(), 3)
    cluster = ClusterSpec.homogeneous(2, 1, 2)
    allocation = allocate_load_balanced(stages, times, cluster,
                                        method="water_filling")
    return trained, model_provider, data_provider, allocation.plan


class TestPipelineCorrectness:
    def test_stream_matches_plaintext(self, breast_pipeline_parts,
                                      breast_dataset):
        trained, model_provider, data_provider, plan = \
            breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        inputs = list(breast_dataset.test_x[:6])
        stats = pipeline.run_stream(inputs)
        rounded = round_parameters(trained, 3)
        expected = rounded.predict(
            np.round(np.stack(inputs), 3)
        )
        by_id = sorted(stats.results, key=lambda r: r.request_id)
        assert [r.prediction for r in by_id] == list(expected)

    def test_all_stages_touch_every_request(self,
                                            breast_pipeline_parts,
                                            breast_dataset):
        _, model_provider, data_provider, plan = breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        stats = pipeline.run_stream(list(breast_dataset.test_x[:4]))
        assert all(count == 4 for count in stats.stage_items)

    def test_latency_and_throughput_reported(self,
                                             breast_pipeline_parts,
                                             breast_dataset):
        _, model_provider, data_provider, plan = breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        stats = pipeline.run_stream(list(breast_dataset.test_x[:4]))
        assert stats.mean_latency > 0
        assert stats.throughput > 0
        assert stats.wall_time > 0

    def test_pipelining_overlaps_requests(self, breast_pipeline_parts,
                                          breast_dataset):
        """With multiple requests in flight, total wall time is less
        than the sum of individual latencies (requests overlap)."""
        _, model_provider, data_provider, plan = breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        stats = pipeline.run_stream(list(breast_dataset.test_x[:6]))
        total_latency = sum(r.latency for r in stats.results)
        assert stats.wall_time < total_latency

    def test_utilization_report(self, breast_pipeline_parts,
                                breast_dataset):
        _, model_provider, data_provider, plan = breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        stats = pipeline.run_stream(list(breast_dataset.test_x[:4]))
        utilizations = stats.stage_utilizations()
        assert len(utilizations) == len(plan.stages)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in utilizations)
        report = stats.utilization_report()
        assert "bottleneck" in report
        assert "req/s" in report

    def test_pipeline_reusable_across_streams(self,
                                              breast_pipeline_parts,
                                              breast_dataset):
        """Regression: run_stream's drain shuts each executor's thread
        pool down, but the executors outlive the stream — a second
        run_stream on the same Pipeline dead-lettered every request
        with 'cannot schedule new futures after shutdown' wherever a
        stage partitioned into more than one task.  Pools are now
        recreated lazily per stream."""
        _, model_provider, data_provider, plan = breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        inputs = list(breast_dataset.test_x[:2])
        first = pipeline.run_stream(inputs)
        second = pipeline.run_stream(inputs)
        assert not first.dead_letters and not second.dead_letters
        assert len(second.results) == len(inputs)
        first_by_id = sorted(first.results, key=lambda r: r.request_id)
        second_by_id = sorted(second.results,
                              key=lambda r: r.request_id)
        assert [r.prediction for r in second_by_id] \
            == [r.prediction for r in first_by_id]

    def test_empty_stream_rejected(self, breast_pipeline_parts):
        _, model_provider, data_provider, plan = breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        with pytest.raises(StreamError):
            pipeline.run_stream([])

    @pytest.mark.timeout(120)
    def test_admission_does_not_deadlock_on_tiny_channels(
            self, breast_pipeline_parts, breast_dataset):
        """Regression: run_stream used to admit every input before
        draining the sink, so num_inputs greater than the pipeline's
        total channel capacity deadlocked (producer blocked on a full
        source channel, sink never read).  Admission now happens from
        a producer thread concurrent with draining."""
        trained, model_provider, data_provider, plan = \
            breast_pipeline_parts
        pipeline = Pipeline(model_provider, data_provider, plan)
        # 16 inputs vs total buffering of (stages + 1) one-slot channels
        inputs = [breast_dataset.test_x[i % 8] for i in range(16)]
        stats = pipeline.run_stream(inputs)
        assert len(stats.results) == 16
        rounded = round_parameters(trained, 3)
        expected = rounded.predict(np.round(np.stack(inputs), 3))
        by_id = sorted(stats.results, key=lambda r: r.request_id)
        assert [r.prediction for r in by_id] == list(expected)


class TestPartitioningToggle:
    def test_without_partitioning_same_results(self, trained_breast,
                                               breast_dataset):
        config = RuntimeConfig(key_size=128, seed=22)
        model_provider = ModelProvider(trained_breast, decimals=3,
                                       config=config)
        data_provider = DataProvider(value_decimals=3, config=config)
        cluster = ClusterSpec.homogeneous(2, 1, 2)
        allocation = allocate_even(model_provider.stages, cluster,
                                   use_tensor_partitioning=False)
        pipeline = Pipeline(model_provider, data_provider,
                            allocation.plan)
        stats = pipeline.run_stream(list(breast_dataset.test_x[:3]))
        rounded = round_parameters(trained_breast, 3)
        expected = rounded.predict(
            np.round(breast_dataset.test_x[:3], 3)
        )
        by_id = sorted(stats.results, key=lambda r: r.request_id)
        assert [r.prediction for r in by_id] == list(expected)


class TestConvPipeline:
    def test_conv_model_streams(self, tiny_conv_model):
        config = RuntimeConfig(key_size=128, seed=23)
        model_provider = ModelProvider(tiny_conv_model, decimals=2,
                                       config=config)
        data_provider = DataProvider(value_decimals=2, config=config)
        cluster = ClusterSpec.homogeneous(1, 1, 2)
        allocation = allocate_even(model_provider.stages, cluster)
        pipeline = Pipeline(model_provider, data_provider,
                            allocation.plan)
        rng = np.random.default_rng(1)
        inputs = [rng.uniform(0, 1, (1, 8, 8)) for _ in range(2)]
        stats = pipeline.run_stream(inputs)
        assert len(stats.results) == 2
        for result in stats.results:
            assert 0 <= result.prediction < 3
