"""Distance correlation (Székely et al. 2007) for leakage measurement.

Exp#5 of the paper quantifies how much information a permuted tensor
leaks about the original by computing the distance correlation between
the before- and after-obfuscation vectors (via the ``dcor`` package).
This module implements the sample distance correlation from first
principles: pairwise distance matrices, double centering, and the
normalized distance covariance.

dCor is 0 only for independent samples and 1 for identical ones; the
paper reports values from 0.29 (length 2^5) down to 0.02 (length 2^13),
falling as tensors grow.
"""

from __future__ import annotations

import random
from typing import Iterable

import numpy as np

from ..errors import ObfuscationError
from .permutation import Permutation


#: Row-block size for the memory-light distance-covariance pass.
_BLOCK_ROWS = 512


def distance_covariance(x: np.ndarray, y: np.ndarray) -> float:
    """Sample distance covariance of two equal-length 1-D samples.

    Uses the double-centering identity

        mean(A o B) = mean(a o b) - 2 * mean_i(abar_i * bbar_i)
                      + abar * bbar

    (A, B the centered distance matrices; abar_i row means; abar the
    grand mean), evaluated over row blocks so the n x n distance
    matrices are never materialized — exact, and O(block * n) memory
    even at the paper's 2^13 tensor length.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ObfuscationError(
            f"samples must have equal length, got {x.shape} and {y.shape}"
        )
    if x.size < 2:
        raise ObfuscationError("distance covariance needs >= 2 samples")
    n = x.size
    row_means_x = np.empty(n)
    row_means_y = np.empty(n)
    cross_sum = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block_x = np.abs(x[start:stop, None] - x[None, :])
        block_y = np.abs(y[start:stop, None] - y[None, :])
        row_means_x[start:stop] = block_x.mean(axis=1)
        row_means_y[start:stop] = block_y.mean(axis=1)
        cross_sum += float((block_x * block_y).sum())
    grand_x = float(row_means_x.mean())
    grand_y = float(row_means_y.mean())
    value = (
        cross_sum / (n * n)
        - 2.0 * float((row_means_x * row_means_y).mean())
        + grand_x * grand_y
    )
    return float(np.sqrt(max(value, 0.0)))


def distance_variance(x: np.ndarray) -> float:
    """``distance_covariance(x, x)`` in O(n log n) time and O(n) memory.

    The same double-centering identity with ``b = a``, each term in
    closed form on the sorted sample ``s`` (centred, so the sums stay
    small):

    * ``sum_ij (x_i - x_j)^2 = 2 n sum_i (x_i - mean)^2``;
    * the row sum of ``|s_k - s_j|`` is
      ``s_k (2k - n) + total - 2 prefix_k`` (``prefix_k`` the sum of
      the ``k`` smaller values), so every row mean is one prefix sum.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise ObfuscationError("distance covariance needs >= 2 samples")
    n = x.size
    centred = np.sort(x - x.mean())
    prefix = np.concatenate(([0.0], np.cumsum(centred)[:-1]))
    ranks = np.arange(n, dtype=np.float64)
    row_means = (centred * (2.0 * ranks - n) + centred.sum()
                 - 2.0 * prefix) / n
    grand = float(row_means.mean())
    value = (
        2.0 * float((centred * centred).mean())
        - 2.0 * float((row_means * row_means).mean())
        + grand * grand
    )
    return float(np.sqrt(max(value, 0.0)))


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Sample distance correlation in [0, 1].

    Returns 0 when either sample is constant (zero distance variance),
    matching the convention of the reference ``dcor`` implementation.
    """
    dcov = distance_covariance(x, y)
    dvar_x = distance_variance(x)
    dvar_y = distance_variance(y)
    denom = dvar_x * dvar_y
    if denom == 0:
        return 0.0
    return float(dcov / np.sqrt(denom))


def permutation_leakage(
    values: np.ndarray, seed: int
) -> float:
    """dCor between a vector and a seeded random permutation of it."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    permutation = Permutation.random(values.size, seed)
    return distance_correlation(values, permutation.apply_array(values))


def leakage_by_length(
    lengths: Iterable[int],
    trials: int = 8,
    seed: int = 0,
    value_sampler=None,
) -> dict[int, float]:
    """Average permutation leakage for each tensor length (Table VI).

    Args:
        lengths: tensor lengths to evaluate (the paper sweeps 2^5..2^13).
        trials: independent (tensor, permutation) draws per length.
        seed: master seed.
        value_sampler: callable ``(rng, length) -> np.ndarray`` producing
            the pre-obfuscation tensor; defaults to standard normal
            activations, resembling post-linear-layer tensors.

    Returns:
        mapping from length to mean distance correlation.
    """
    rng = random.Random(seed)
    if value_sampler is None:
        def value_sampler(r: random.Random, n: int) -> np.ndarray:
            gen = np.random.default_rng(r.getrandbits(32))
            return gen.standard_normal(n)

    results: dict[int, float] = {}
    for length in lengths:
        if length < 2:
            raise ObfuscationError(
                f"tensor length must be >= 2, got {length}"
            )
        total = 0.0
        for _ in range(trials):
            values = value_sampler(rng, length)
            total += permutation_leakage(values, rng.getrandbits(48))
        results[length] = total / trials
    return results
