"""Property-based tests for tensor partitioning invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.layers import Conv2d
from repro.partitioning.receptive import required_inputs
from repro.scaling.fixed_point import scaled_affine_for_layer


class TestReceptiveFieldProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        in_c=st.integers(min_value=1, max_value=3),
        out_c=st.integers(min_value=1, max_value=3),
        hw=st.integers(min_value=3, max_value=7),
        kernel=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=2),
        padding=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2 ** 20),
    )
    def test_conv_receptive_matches_dense_support(
        self, in_c, out_c, hw, kernel, stride, padding, seed
    ):
        """For arbitrary conv geometry, the analytic receptive field of
        every output equals (a superset of) the non-zero columns of the
        unrolled dense matrix, and never exceeds kernel^2 * in_c."""
        if kernel > hw + 2 * padding:
            return
        layer = Conv2d(in_c, out_c, kernel=kernel, stride=stride,
                       padding=padding,
                       rng=np.random.default_rng(seed))
        shape = (in_c, hw, hw)
        affine = scaled_affine_for_layer(layer, shape, 6)
        for flat in range(0, affine.out_dim,
                          max(affine.out_dim // 5, 1)):
            dense = set(
                int(i) for i in np.flatnonzero(affine.weight[flat])
            )
            analytic = required_inputs(layer, shape, [flat])
            assert dense <= analytic
            assert len(analytic) <= in_c * kernel * kernel

    @settings(max_examples=20, deadline=None)
    @given(
        hw=st.integers(min_value=4, max_value=8),
        threads=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2 ** 20),
    )
    def test_partitioned_conv_never_ships_more_than_whole(
        self, hw, threads, seed
    ):
        """Per-thread receptive fields are never larger than the full
        input, and tensor partitioning never ships more in total than
        the no-partitioning y x input baseline."""
        from repro.partitioning.receptive import \
            partitioned_input_elements

        layer = Conv2d(1, 2, kernel=3, stride=1, padding=1,
                       rng=np.random.default_rng(seed))
        shape = (1, hw, hw)
        out_size = int(np.prod(layer.output_shape(shape)))
        counts = partitioned_input_elements([layer], [shape], out_size,
                                            threads)
        input_size = hw * hw
        assert all(count <= input_size for count in counts)
        assert sum(counts) <= min(threads, out_size) * input_size
