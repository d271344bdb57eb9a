"""Unit tests for offline stage profiling."""

import pytest

from repro.config import RuntimeConfig
from repro.costs import CostModel, stage_compute_seconds, stage_lane_bits
from repro.errors import PlannerError
from repro.nn.layers import FullyConnected, ReLU, SoftMax
from repro.nn.model import Sequential
from repro.planner.allocation import allocate_even, allocate_load_balanced
from repro.planner.plan import ClusterSpec
from repro.planner.primitive import model_stages
from repro.planner.profiling import profile_live, profile_primitive_times
from repro.protocol import ModelProvider
from repro.serve.gateway import build_serve_model
from repro.simulate.stagecosts import stage_costs


def stages_fixture(hidden=16):
    model = Sequential((8,))
    model.add(FullyConnected(8, hidden))
    model.add(ReLU())
    model.add(FullyConnected(hidden, 2))
    model.add(SoftMax())
    return model_stages(model)


class TestAnalyticProfile:
    def test_positive_times(self):
        times = profile_primitive_times(stages_fixture(),
                                        CostModel.reference(), 4)
        assert all(t > 0 for t in times)
        assert len(times) == 4

    def test_bigger_layer_costs_more(self):
        small = profile_primitive_times(stages_fixture(8),
                                        CostModel.reference(), 4)
        large = profile_primitive_times(stages_fixture(64),
                                        CostModel.reference(), 4)
        assert large[0] > small[0]

    def test_scaling_decimals_increase_linear_cost(self):
        """Fig. 6 mechanism: bigger scalars -> slower scalar mults."""
        stages = stages_fixture()
        low = profile_primitive_times(stages, CostModel.reference(), 0)
        high = profile_primitive_times(stages, CostModel.reference(), 6)
        assert high[0] > low[0]          # linear stage affected
        # The non-linear stage only through the width of the lanes it
        # folds its input in (the linear stage's bound grows with f).
        cost_model = CostModel.reference()
        widths = [stage_lane_bits(stages, f, cost_model.key_size)[1]
                  for f in (0, 6)]
        assert widths[1] > widths[0]
        values = stages[1].op_counts().input_size
        assert high[1] - low[1] == pytest.approx(
            cost_model.lane_decrypt_seconds(values, widths[1])
            - cost_model.lane_decrypt_seconds(values, widths[0]))

    def test_nonlinear_dominated_by_crypto(self):
        """Enc/dec costs dwarf the activation itself (Fig. 1).  The
        stage decrypts its input folded in the lanes of the linear
        stage's certified bound."""
        stages = stages_fixture()
        cost_model = CostModel.reference()
        times = profile_primitive_times(stages, cost_model, 4)
        relu_stage = stages[1]
        counts = relu_stage.op_counts()
        lanes = stage_lane_bits(stages, 4, cost_model.key_size)
        assert lanes[0] is None and lanes[1] is not None
        crypto_only = cost_model.lane_decrypt_seconds(
            counts.input_size, lanes[1]) \
            + counts.output_size * cost_model.encrypt
        assert times[1] == pytest.approx(crypto_only, rel=0.01)

    def test_fold_is_priced_in_the_nonlinear_stage(self):
        """The runtime's fold, priced where it runs: per run of ``k``
        values one exponentiation mod p^2 (half a CRT decryption) and
        ``L`` squarings per further value, plus N unpacks, all in the
        non-linear stage; the linear stage pays no fold."""
        stages = stages_fixture()
        cost_model = CostModel.reference()
        times = profile_primitive_times(stages, cost_model, 4)
        lane_bits = stage_lane_bits(stages, 4, cost_model.key_size)[1]
        outputs = stages[0].op_counts().output_size
        k = (cost_model.key_size // 2 - 2) // lane_bits
        assert k > 1
        runs = -(-outputs // k)
        half = cost_model.decrypt / 2
        unfolded = (outputs * cost_model.decrypt
                    + stages[1].op_counts().plain_ops
                    * cost_model.plain_op
                    + outputs * cost_model.encrypt)
        assert unfolded - times[1] == pytest.approx(
            outputs * cost_model.decrypt - runs * half
            - (outputs - runs) * lane_bits * half
            / (cost_model.key_size // 2)
            - outputs * cost_model.plain_op)
        assert times[1] < unfolded
        assert times[0] == pytest.approx(stage_compute_seconds(
            stages[0], cost_model, 4))

    def test_empty_rejected(self):
        with pytest.raises(PlannerError):
            profile_primitive_times([], CostModel.reference(), 4)


class TestLiveProfile:
    def test_returns_positive_times(self):
        times = profile_live(stages_fixture(), repeats=5)
        assert len(times) == 4
        assert all(t > 0 for t in times)

    def test_repeats_validation(self):
        with pytest.raises(PlannerError):
            profile_live(stages_fixture(), repeats=0)

    def test_relative_ordering_sane(self):
        """A vastly larger model takes more total plaintext time.

        Sizes are far apart (4 vs 16384 hidden units) so the comparison
        is robust to per-call timing noise.
        """
        small = profile_live(stages_fixture(4), repeats=30)
        large = profile_live(stages_fixture(16384), repeats=30)
        assert sum(large) > sum(small)


class TestCompressionAwareProfile:
    def test_compressed_linear_stage_is_cheaper(self):
        from repro.costs import CompressionStats

        stages = stages_fixture()
        dense = profile_primitive_times(stages, CostModel.reference(), 4)
        stats = [CompressionStats(density=0.3, clusters=8), None,
                 None, None]
        compressed = profile_primitive_times(
            stages, CostModel.reference(), 4, compression=stats)
        assert compressed[0] < dense[0]          # compressed FC stage
        assert compressed[1] == pytest.approx(dense[1])  # untouched

    def test_plan_derived_stats_match_hand_built(self):
        """A real plan's exported stats flow through the profiler."""
        import numpy as np

        from repro.crypto.sparse import SparseMatvecPlan

        rng = np.random.default_rng(0)
        weights = rng.integers(-3, 4, size=(16, 8))
        weights[rng.random(weights.shape) < 0.7] = 0
        plan = SparseMatvecPlan.from_dense(weights)
        stages = stages_fixture()
        stats = [plan.compression_stats(), None, None, None]
        times = profile_primitive_times(
            stages, CostModel.reference(), 4, compression=stats)
        dense = profile_primitive_times(stages, CostModel.reference(), 4)
        assert times[0] < dense[0]

    def test_dense_stats_change_nothing(self):
        from repro.costs import CompressionStats

        stages = stages_fixture()
        dense = profile_primitive_times(stages, CostModel.reference(), 4)
        neutral = profile_primitive_times(
            stages, CostModel.reference(), 4,
            compression=[CompressionStats()] * len(stages))
        assert neutral == pytest.approx(dense)

    def test_length_mismatch_rejected(self):
        from repro.costs import CompressionStats

        with pytest.raises(PlannerError):
            profile_primitive_times(
                stages_fixture(), CostModel.reference(), 4,
                compression=[CompressionStats()])


#: ``profile_primitive_times`` of the served tiny model (the
#: ``conv_stream_tcp`` benchmark workload: reference costs, its scaling
#: decimals and compression stats), as exact float hex.
TINY_TIMES = (
    "0x1.85980fabc4947p-7", "0x1.4b3daac7a581cp-1",
    "0x1.ddf0e17f0b78ep-10", "0x1.4bde25a8ed2fdp-3",
    "0x1.89e5c76f95ba2p-7", "0x1.5399aac7a581cp-5",
    "0x1.30250bd31cf30p-10", "0x1.0b47d4bc15abap-6",
)


class TestPinnedProfile:
    def test_tiny_profile_and_plan_are_bit_identical(self):
        """A change to the stage cost formula that moves the planner's
        profile or the plan built on it, by as little as one bit, shows
        here."""
        model, decimals, _shape = build_serve_model("tiny")
        provider = ModelProvider(model, decimals=decimals,
                                 config=RuntimeConfig(key_size=128))
        times = profile_primitive_times(
            provider.stages, CostModel.reference(), decimals,
            compression=provider.compression_stats())
        assert tuple(t.hex() for t in times) == TINY_TIMES
        plan = allocate_load_balanced(
            provider.stages, times, ClusterSpec.homogeneous(1, 1, 2)).plan
        assert [(a.stage_index, a.server_id, a.threads)
                for a in plan.assignments] == [
            (index, index % 2, 1) for index in range(8)]

    def test_planner_and_simulator_price_a_stage_alike(self):
        stages = stages_fixture()
        cost_model = CostModel.reference()
        plan = allocate_even(stages, ClusterSpec.homogeneous(1, 1, 1)).plan
        assert all(plan.threads_for(s.index) == 1 for s in stages)
        assert [cost.compute for cost in stage_costs(plan, cost_model, 4)] \
            == profile_primitive_times(stages, cost_model, 4)
