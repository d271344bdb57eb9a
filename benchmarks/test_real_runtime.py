"""Real-runtime benchmark: the threaded pipeline with actual Paillier.

Unlike the simulator-backed figure benches, this streams encrypted
requests through the real runtime (Paillier arithmetic, permutations,
one thread per stage) at a small key size — the crypto-correct path
the test suite verifies, timed end-to-end.
"""

import numpy as np

from repro.config import RuntimeConfig
from repro.costs import CostModel
from repro.experiments.common import prepare_model
from repro.planner.allocation import allocate_load_balanced
from repro.planner.plan import ClusterSpec
from repro.planner.profiling import profile_primitive_times
from repro.protocol import DataProvider, ModelProvider
from repro.stream import Pipeline

KEY_SIZE = 128
REQUESTS = 6


def test_real_pipeline_stream(benchmark):
    prepared = prepare_model("breast")
    config = RuntimeConfig(key_size=KEY_SIZE, seed=17)
    model_provider = ModelProvider(prepared.model,
                                   decimals=prepared.decimals,
                                   config=config)
    data_provider = DataProvider(value_decimals=prepared.decimals,
                                 config=config)
    stages = model_provider.stages
    times = profile_primitive_times(stages, CostModel.reference(),
                                    prepared.decimals)
    cluster = ClusterSpec.homogeneous(2, 1, 2)
    allocation = allocate_load_balanced(stages, times, cluster,
                                        method="water_filling")
    inputs = list(prepared.dataset.test_x[:REQUESTS])

    def run():
        pipeline = Pipeline(model_provider, data_provider,
                            allocation.plan)
        return pipeline.run_stream(inputs)

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"real runtime ({KEY_SIZE}-bit keys, {REQUESTS} requests): "
          f"mean latency {stats.mean_latency:.3f}s, throughput "
          f"{stats.throughput:.2f} req/s")

    plain = prepared.model.predict(np.stack(inputs))
    by_id = sorted(stats.results, key=lambda r: r.request_id)
    agreement = sum(
        r.prediction == plain[r.request_id] for r in by_id
    )
    assert agreement == REQUESTS
    # pipelining: wall time beats the sum of per-request latencies
    assert stats.wall_time < sum(r.latency for r in stats.results)
