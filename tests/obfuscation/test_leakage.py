"""Unit tests for the distance-correlation leakage metric (Exp#5)."""

import numpy as np
import pytest

from repro.errors import ObfuscationError
from repro.obfuscation.leakage import (
    distance_correlation,
    distance_covariance,
    distance_variance,
    leakage_by_length,
    permutation_leakage,
)


class TestDistanceCorrelation:
    def test_identical_vectors(self):
        x = np.array([1.0, 2.0, 5.0, -3.0, 0.5])
        assert distance_correlation(x, x) == pytest.approx(1.0)

    def test_linear_relation_is_one(self):
        """dCor is invariant to affine maps: dCor(x, 3x+2) = 1."""
        x = np.linspace(-2, 2, 40)
        assert distance_correlation(x, 3 * x + 2) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(50), rng.standard_normal(50)
        assert distance_correlation(x, y) == pytest.approx(
            distance_correlation(y, x)
        )

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            value = distance_correlation(x, y)
            assert 0.0 <= value <= 1.0

    def test_independent_samples_small(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        assert distance_correlation(x, y) < 0.15

    def test_constant_sample_returns_zero(self):
        x = np.ones(10)
        y = np.arange(10.0)
        assert distance_correlation(x, y) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ObfuscationError):
            distance_covariance(np.arange(3.0), np.arange(4.0))

    def test_too_short(self):
        with pytest.raises(ObfuscationError):
            distance_covariance(np.array([1.0]), np.array([2.0]))

    def test_nonlinear_dependence_detected(self):
        """dCor (unlike Pearson) catches y = x^2 on symmetric x."""
        x = np.linspace(-1, 1, 60)
        y = x ** 2
        assert distance_correlation(x, y) > 0.4


class TestDistanceVariance:
    @pytest.mark.parametrize("n", [2, 3, 7, 32, 513, 2048])
    def test_equals_the_pairwise_form(self, n):
        """The sorted closed form is the O(n^2) pass, to 1e-12
        relative, on continuous, tied and offset samples."""
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n),
                  rng.integers(0, 4, n).astype(float),
                  1e3 * rng.standard_normal(n) + 50.0,
                  np.abs(rng.standard_cauchy(n))):
            expected = distance_covariance(x, x)
            assert distance_variance(x) == pytest.approx(
                expected, rel=1e-12, abs=1e-300)

    def test_constant_sample_is_zero(self):
        assert distance_variance(np.full(9, 2.5)) == 0.0

    def test_too_short(self):
        with pytest.raises(ObfuscationError):
            distance_variance(np.array([1.0]))


class TestPermutationLeakage:
    def test_deterministic(self):
        values = np.random.default_rng(3).standard_normal(64)
        assert permutation_leakage(values, seed=9) == pytest.approx(
            permutation_leakage(values, seed=9)
        )

    def test_bounded(self):
        values = np.random.default_rng(4).standard_normal(64)
        assert 0.0 <= permutation_leakage(values, seed=1) <= 1.0


class TestLeakageByLength:
    def test_monotone_trend(self):
        """The paper's Table VI: leakage falls as tensors grow."""
        results = leakage_by_length([2 ** 5, 2 ** 8, 2 ** 11], trials=6,
                                    seed=0)
        assert results[2 ** 5] > results[2 ** 8] > results[2 ** 11]

    def test_magnitudes_match_paper_regime(self):
        """Paper: ~0.29 at 2^5, ~0.02 at 2^13."""
        results = leakage_by_length([2 ** 5, 2 ** 13], trials=4, seed=1)
        assert 0.15 < results[2 ** 5] < 0.5
        assert results[2 ** 13] < 0.05

    def test_bad_length(self):
        with pytest.raises(ObfuscationError):
            leakage_by_length([1], trials=1)

    def test_custom_sampler(self):
        def sampler(rng, n):
            return np.arange(float(n))

        results = leakage_by_length([32], trials=2, seed=0,
                                    value_sampler=sampler)
        assert 0.0 <= results[32] <= 1.0
