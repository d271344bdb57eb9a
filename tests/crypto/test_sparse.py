"""Unit tests for the planned matvec path.

Covers:

* :class:`SparseMatvecPlan` — the once-per-layer sparse column index
  and its compiled column schedules;
* :meth:`PaillierEngine.fc_matvec` / ``conv_im2col`` — bit-identity
  with the dense engine path on surviving weights, zero-skip and
  multiply counters, and process-pool dispatch.
"""

import random

import numpy as np
import pytest

from repro.crypto.backend import PythonBackend
from repro.crypto.engine import PaillierEngine
from repro.crypto.sparse import SparseMatvecPlan
from repro.errors import CryptoError
from repro.observability import Observability


WEIGHTS = [
    [3, 0, -2, 0],
    [0, 0, -2, 5],
    [3, 0, 0, 0],
]


class TestSparseMatvecPlan:
    def test_from_dense_structure(self):
        plan = SparseMatvecPlan.from_dense(WEIGHTS)
        assert (plan.out_dim, plan.in_dim) == (3, 4)
        # Column 1 is all zero and must not appear at all.
        assert [i for i, _ in plan.columns] == [0, 2, 3]
        as_dict = dict(plan.columns)
        assert as_dict[0] == ((3, (0, 2)),)
        assert as_dict[2] == ((-2, (0, 1)),)
        assert as_dict[3] == ((5, (1,)),)
        assert plan.nnz == 5
        assert plan.total == 12
        assert plan.distinct_values == 3
        assert plan.distinct_pairs == 3
        assert plan.row_weight_sums == (1, 3, 3)
        assert plan.max_weight_bits == 3

    def test_groups_sorted_ascending_by_weight(self):
        plan = SparseMatvecPlan.from_dense([[7], [-7], [2]])
        ((_, groups),) = plan.columns
        assert [w for w, _ in groups] == [-7, 2, 7]

    def test_density_and_distinct_per_column(self):
        plan = SparseMatvecPlan.from_dense(WEIGHTS)
        assert plan.density == pytest.approx(5 / 12)
        assert plan.sparsity == pytest.approx(7 / 12)
        assert plan.distinct_per_column == pytest.approx(1.0)

    def test_compression_stats_export(self):
        stats = SparseMatvecPlan.from_dense(WEIGHTS).compression_stats()
        assert stats.density == pytest.approx(5 / 12)
        assert stats.clusters == 3
        assert stats.distinct_per_column == pytest.approx(1.0)

    def test_equality_and_hash_are_structural(self):
        a = SparseMatvecPlan.from_dense(WEIGHTS)
        b = SparseMatvecPlan.from_dense(np.array(WEIGHTS))
        c = SparseMatvecPlan.from_dense([[1, 0], [0, 1]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_object_dtype_matrix(self):
        big = 10 ** 30
        plan = SparseMatvecPlan.from_dense(
            np.array([[big, 0], [0, -big]], dtype=object))
        assert plan.distinct_values == 2
        assert plan.max_weight_bits == big.bit_length()

    def test_zero_weight_group_rejected(self):
        with pytest.raises(CryptoError):
            SparseMatvecPlan(1, 1, [(0, ((0, (0,)),))], [0])

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(CryptoError):
            SparseMatvecPlan(1, 1, [(1, ((2, (0,)),))], [2])
        with pytest.raises(CryptoError):
            SparseMatvecPlan(1, 1, [(0, ((2, (1,)),))], [2])

    def test_row_sums_length_checked(self):
        with pytest.raises(CryptoError):
            SparseMatvecPlan(1, 2, [], [0])

    def test_non_2d_rejected(self):
        with pytest.raises(CryptoError):
            SparseMatvecPlan.from_dense([1, 2, 3])


def encrypt_cells(engine, values, seed=7):
    return engine.raw_encrypt_many(values, rng=random.Random(seed))


class TestCompressedMatvec:
    """fc_matvec / conv_im2col == matvec, bit for bit."""

    def setup_engine(self, keypair, **kwargs):
        pub, priv = keypair
        return PaillierEngine(pub, private_key=priv, seed=3, **kwargs)

    def test_fc_matvec_bit_identical_to_dense(self, keypair):
        engine = self.setup_engine(keypair)
        cells = encrypt_cells(engine, [11, 22, 33, 44])
        bias = encrypt_cells(engine, [1, 2, 3], seed=9)
        dense = engine.matvec(cells, WEIGHTS, bias)
        compressed = engine.fc_matvec(cells, WEIGHTS, bias)
        assert compressed == dense

    def test_conv_im2col_bit_identical_to_dense(self, keypair):
        engine = self.setup_engine(keypair)
        rng = np.random.default_rng(0)
        weights = rng.integers(-4, 5, size=(6, 9))
        weights[rng.random(weights.shape) < 0.6] = 0
        cells = encrypt_cells(engine, list(range(1, 10)))
        bias = encrypt_cells(engine, [5] * 6, seed=11)
        assert engine.conv_im2col(cells, weights, bias) \
            == engine.matvec(cells, weights, bias)

    def test_prebuilt_plan_matches_on_the_fly(self, keypair):
        engine = self.setup_engine(keypair)
        cells = encrypt_cells(engine, [7, 8, 9, 10])
        bias = encrypt_cells(engine, [0, 0, 0], seed=13)
        plan = SparseMatvecPlan.from_dense(WEIGHTS)
        assert engine.fc_matvec(cells, plan=plan, bias=bias) \
            == engine.fc_matvec(cells, WEIGHTS, bias)

    def test_decrypts_to_plaintext_math(self, keypair):
        engine = self.setup_engine(keypair)
        x = [11, 22, 33, 44]
        b = [1, 2, 3]
        cells = encrypt_cells(engine, x)
        bias = encrypt_cells(engine, b, seed=9)
        out = engine.fc_matvec(cells, WEIGHTS, bias)
        n = engine.public_key.n
        expected = [
            (sum(w * v for w, v in zip(row, x)) + bi) % n
            for row, bi in zip(WEIGHTS, b)
        ]
        assert engine.raw_decrypt_many(out) == expected

    def test_missing_weights_and_plan_rejected(self, keypair):
        engine = self.setup_engine(keypair)
        with pytest.raises(CryptoError):
            engine.fc_matvec([1, 2], bias=[1])

    def test_dimension_mismatches_rejected(self, keypair):
        engine = self.setup_engine(keypair)
        plan = SparseMatvecPlan.from_dense(WEIGHTS)
        cells = encrypt_cells(engine, [1, 2, 3, 4])
        with pytest.raises(CryptoError):
            engine.fc_matvec(cells[:2], plan=plan, bias=[1, 1, 1])
        with pytest.raises(CryptoError):
            engine.fc_matvec(cells, plan=plan, bias=[1])

    def test_zero_skip_counter(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=3,
                                obs=Observability())
        cells = encrypt_cells(engine, [1, 2, 3, 4])
        bias = encrypt_cells(engine, [0, 0, 0], seed=5)
        engine.fc_matvec(cells, WEIGHTS, bias)
        registry = engine.obs.registry
        skipped = registry.counter("paillier_compress_zero_skipped")
        assert skipped.value == 12 - 5
        ops = registry.counter("paillier_compress_ops", op="fc_matvec")
        assert ops.value == 1

    def test_pool_dispatch_bit_identical(self, keypair):
        sequential = self.setup_engine(keypair)
        pooled = self.setup_engine(keypair, workers=2,
                                   force_parallel=True)
        try:
            rng = np.random.default_rng(1)
            weights = rng.integers(-3, 4, size=(8, 8))
            weights[rng.random(weights.shape) < 0.5] = 0
            cells = encrypt_cells(sequential, list(range(8)))
            bias = encrypt_cells(sequential, [9] * 8, seed=21)
            assert pooled.fc_matvec(cells, weights, bias) \
                == sequential.fc_matvec(cells, weights, bias)
        finally:
            pooled.close()

    def test_all_zero_matrix_returns_bias(self, keypair):
        engine = self.setup_engine(keypair)
        cells = encrypt_cells(engine, [1, 2])
        bias = encrypt_cells(engine, [4, 5, 6], seed=2)
        out = engine.fc_matvec(cells, [[0, 0]] * 3, bias)
        assert engine.raw_decrypt_many(out) == [4, 5, 6]


class CountingModulus(int):
    """``n^2`` that counts every ``x % n^2`` the kernel reduces by."""

    count = 0

    def __rmod__(self, other):
        CountingModulus.count += 1
        return int(other) % int(self)


class CountingBackend(PythonBackend):
    def wrap(self, value):
        return CountingModulus(value)


class TestMultCounts:
    """``paillier_matvec_mults{part}`` rises by exactly the plan's
    counts per call, and those counts are the kernel's real modular
    multiplies."""

    def weights(self):
        rng = np.random.default_rng(4)
        weights = rng.integers(-300, 300, size=(7, 6))
        weights[rng.random(weights.shape) < 0.3] = 0
        weights[2] = np.abs(weights[2]) + 1      # an all-positive row
        return weights

    def test_counters_rise_by_the_plan_counts(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=3,
                                obs=Observability())
        plan = SparseMatvecPlan.from_dense(self.weights())
        counts = plan.mult_counts()
        assert counts["schedule"] == plan.schedule_steps > 0
        assert counts["scatter"] == plan.nnz
        assert counts["invert"] == 4 * len(plan.negative_rows) - 3
        cells = encrypt_cells(engine, list(range(6)))
        bias = encrypt_cells(engine, [0] * 7, seed=8)
        registry = engine.obs.registry
        for calls in (1, 2, 3):
            engine.conv_im2col(cells, bias=bias, plan=plan)
            for part, count in counts.items():
                assert registry.counter("paillier_matvec_mults",
                                        part=part).value == calls * count

    def test_counts_are_the_kernels_multiplies(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=3, backend=CountingBackend())
        weights = self.weights()
        plan = SparseMatvecPlan.from_dense(weights)
        cells = encrypt_cells(engine, list(range(6)))
        bias = encrypt_cells(engine, [1] * 7, seed=8)
        CountingModulus.count = 0
        out = engine.fc_matvec(cells, bias=bias, plan=plan)
        assert CountingModulus.count == sum(plan.mult_counts().values())
        assert out == PaillierEngine(pub, seed=3).matvec(cells, weights,
                                                          bias)

    def test_all_positive_plan_pays_no_inversion(self):
        plan = SparseMatvecPlan.from_dense([[3, 1], [2, 7]])
        assert plan.negative_rows == ()
        assert plan.mult_counts()["invert"] == 0


class TestDefaultEngineConfig:
    def test_default_engine_uses_config_knobs(self, keypair):
        from repro.config import DEFAULT_CONFIG
        from repro.crypto.engine import default_engine

        engine = default_engine(keypair[0])
        assert engine.workers == DEFAULT_CONFIG.workers
        assert engine.pool.target_size == DEFAULT_CONFIG.blinding_pool_size
        assert engine.dispatch_min_items \
            == DEFAULT_CONFIG.dispatch_min_items
