"""Offline profiling of per-stage CPU times T_i (paper Section IV-C).

The ILP needs the time each merged primitive layer takes to process one
input tensor with a single thread.  Two profilers are provided:

* :func:`profile_primitive_times` — analytic: multiply the stage's
  operation counts (from :meth:`Layer.op_counts`) by a
  :class:`~repro.costs.CostModel`.  This mirrors how the simulator will
  charge time, so planner and simulator agree by construction, and it is
  deterministic — the right choice for benchmarks.

* :func:`profile_live` — empirical: run the stage's plaintext layers on
  real inputs ``repeats`` times and average wall-clock time, like the
  paper's 100-tensor offline profiling pass.  Used to sanity-check the
  analytic profile in tests.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from ..costs import (
    CompressionStats,
    CostModel,
    stage_compute_seconds,
    stage_lane_bits,
)
from ..errors import PlannerError
from .primitive import MergedPrimitive


def profile_primitive_times(
    stages: Sequence[MergedPrimitive],
    cost_model: CostModel,
    scaling_decimals: int = 4,
    compression: Sequence[CompressionStats | None] | None = None,
) -> List[float]:
    """Analytic T_i for each stage (seconds per input tensor):
    :func:`repro.costs.stage_compute_seconds`, each non-linear stage
    decrypting its input in the lanes the runtime uses
    (:func:`repro.costs.stage_lane_bits` at the cost model's key
    size).

    Args:
        stages: merged primitive layers in pipeline order.
        cost_model: per-operation costs.
        scaling_decimals: the selected scaling exponent ``f`` (drives
            scalar-multiplication bit lengths).
        compression: optional per-stage
            :class:`~repro.costs.CompressionStats` (``None`` entries
            for uncompressed stages), so stage assignment sees
            compressed layers as the cheaper stages they really are.
    """
    if not stages:
        raise PlannerError("cannot profile an empty stage list")
    if compression is not None and len(compression) != len(stages):
        raise PlannerError(
            f"compression entries ({len(compression)}) != stages "
            f"({len(stages)})"
        )
    lanes = stage_lane_bits(stages, scaling_decimals,
                            cost_model.key_size)
    return [
        stage_compute_seconds(
            stage, cost_model, scaling_decimals, lanes[index],
            compression[index] if compression is not None else None)
        for index, stage in enumerate(stages)
    ]


def profile_live(
    stages: Sequence[MergedPrimitive],
    repeats: int = 100,
    seed: int = 0,
) -> List[float]:
    """Empirical plaintext T_i by timing each stage on random tensors.

    Mirrors the paper's offline profiling ("repeat the measurement for
    100 input tensors ... and obtain the average execution time"), but
    on plaintext layer kernels — it measures the *relative* load of the
    stages, which is what load balancing consumes.
    """
    if repeats < 1:
        raise PlannerError("repeats must be >= 1")
    rng = np.random.default_rng(seed)
    times: List[float] = []
    for stage in stages:
        batch = rng.standard_normal((1,) + stage.input_shape)
        start = time.perf_counter()
        for _ in range(repeats):
            x = batch
            for layer in stage.layers:
                x = layer.forward(x)
        times.append((time.perf_counter() - start) / repeats)
    return times
