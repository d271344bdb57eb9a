"""Unit tests for offline stage profiling."""

import pytest

from repro.costs import CostModel
from repro.errors import PlannerError
from repro.nn.layers import FullyConnected, ReLU, SoftMax
from repro.nn.model import Sequential
from repro.planner.primitive import model_stages
from repro.planner.profiling import profile_live, profile_primitive_times
from repro.scaling.headroom import fold_geometry


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
        assert high[1] == pytest.approx(low[1])  # nonlinear unaffected

    def test_nonlinear_dominated_by_crypto(self):
        """Enc/dec costs dwarf the activation itself (Fig. 1).  The
        stage decrypts its input folded, one CRT decryption per
        ciphertext of ``fold.lanes`` values."""
        stages = stages_fixture()
        cost_model = CostModel.reference()
        times = profile_primitive_times(stages, cost_model, 4)
        relu_stage = stages[1]
        counts = relu_stage.op_counts()
        fold = fold_geometry(stages, 4, cost_model.key_size)
        assert fold.lanes > 1
        crypto_only = -(-counts.input_size // fold.lanes) \
            * cost_model.decrypt \
            + counts.output_size * cost_model.encrypt
        assert times[1] == pytest.approx(crypto_only, rel=0.01)

    def test_fold_moves_decryption_cost_to_the_linear_stage(self):
        """The runtime's fold, priced: ceil(N/k) decryptions plus N
        unpacks on the data side, (N - ceil(N/k)) lane-width powmods
        on the model side."""
        stages = stages_fixture()
        cost_model = CostModel.reference()
        times = profile_primitive_times(stages, cost_model, 4)
        fold = fold_geometry(stages, 4, cost_model.key_size)
        outputs = stages[0].op_counts().output_size
        cells = -(-outputs // fold.lanes)
        unfolded = (outputs * cost_model.decrypt
                    + stages[1].op_counts().plain_ops
                    * cost_model.plain_op
                    + outputs * cost_model.encrypt)
        assert unfolded - times[1] == pytest.approx(
            (outputs - cells) * cost_model.decrypt
            - outputs * cost_model.plain_op)
        linear_fold = (outputs - cells) * cost_model.ciphertext_mul(
            fold.lane_bits)
        assert linear_fold > 0
        assert times[0] > linear_fold

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
