"""Fixed-point overflow analysis for the homomorphic pipeline.

Paillier arithmetic is exact over Z_n, but the *signed* encoding only
decodes correctly while every intermediate magnitude stays below n/2
(see :class:`repro.crypto.encoding.SignedEncoder`).  A merged linear
stage multiplies scaled integers (exponent grows by ``f`` per fused
affine), so with small keys and deep fusions the headroom can silently
run out — the kind of bug that corrupts inferences without failing.

:func:`analyze_headroom` propagates a worst-case magnitude bound
through every stage of a model: for a linear layer the output bound is
``max_row_l1(W_int) * input_bound + max|b_int|``; non-linear stages
reset the bound to the activation's range re-encoded at the data
exponent.  The result reports the tightest margin (in bits) and the
stage where it occurs, and :class:`repro.protocol.roles.ModelProvider`
can refuse configurations that would overflow.

The same propagation powers lane-packing admission
(:func:`plan_lane_packing`): the *peak* per-primitive magnitude sizes
the lane width of :class:`repro.crypto.encoding.LanePacker`, and a
model is admitted to the packed path only when the requested batch's
worth of lanes fits the key.  It also sizes the output fold
(:func:`fold_geometry`): how many of a linear stage's outputs the
model provider packs into one ciphertext before the data provider
decrypts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ScalingError
from ..nn.layers import Flatten, LayerKind
from ..nn.model import Sequential
from ..planner.primitive import MergedPrimitive, model_stages

#: Guard bits of a folded lane.  Headroom bounds are positively
#: homogeneous in the input bound, so lanes sized from the peak at
#: ``input_bound = 1`` stay exact for every input with
#: ``max|x| <= 2^FOLD_GUARD_BITS`` (:data:`FOLD_INPUT_BOUND`).
FOLD_GUARD_BITS = 4

#: The largest input magnitude the fold certifies (and the data
#: provider admits): ``2^FOLD_GUARD_BITS`` times the unit input bound
#: the lanes are sized at.
FOLD_INPUT_BOUND = float(2 ** FOLD_GUARD_BITS)

#: Upper bound on values per folded ciphertext (the wire format
#: carries the lane count in one byte).
MAX_FOLD_LANES = 255


@dataclass(frozen=True)
class HeadroomReport:
    """Outcome of the overflow analysis.

    Attributes:
        safe: True when every intermediate fits the signed range.
        margin_bits: bits of slack at the tightest point (negative
            when overflowing).
        tightest_stage: stage index where the margin occurs.
        bound_by_stage: worst-case integer magnitude after each stage.
        peak_bound: the largest per-primitive intermediate magnitude
            anywhere in the model — a merged linear stage's interior
            primitives can exceed the stage's *final* bound, and lane
            packing must survive every one of them, so this is what
            sizes packed lane widths.
    """

    safe: bool
    margin_bits: float
    tightest_stage: int
    bound_by_stage: dict[int, int]
    peak_bound: int = 0


def _activation_output_bound(activations: list[str],
                             input_bound_float: float) -> float:
    """Worst-case |value| after a non-linear stage, in float units."""
    bound = input_bound_float
    for name in activations:
        base = name.partition(":")[0]
        if base in ("sigmoid", "softmax"):
            bound = 1.0
        elif base == "tanh":
            bound = 1.0
        elif base in ("relu", "leaky_relu"):
            bound = bound  # magnitude cannot grow
        else:
            raise ScalingError(f"unknown activation {name!r}")
    return bound


def analyze_headroom(
    model: Sequential,
    decimals: int,
    key_size: int,
    input_bound: float = 1.0,
) -> HeadroomReport:
    """Propagate worst-case magnitudes and compare against n/2.

    Args:
        model: the (trained) model to be deployed.
        decimals: scaling exponent ``f``.
        key_size: Paillier modulus bits; the signed range is about
            ``2^(key_size - 1)``.
        input_bound: max |input value| (float units; e.g. 1.0 for
            normalized pixels).

    Raises:
        ScalingError: on models the analysis does not support.
    """
    return _analyze_stages(model_stages(model), decimals, key_size,
                           input_bound)


def _analyze_stages(
    stages: Sequence[MergedPrimitive],
    decimals: int,
    key_size: int,
    input_bound: float,
) -> HeadroomReport:
    """:func:`analyze_headroom` over an already-merged stage list."""
    if input_bound <= 0:
        raise ScalingError("input_bound must be positive")
    # Conservative signed range: n >= 2^(key_size - 1), headroom n/2.
    limit_bits = key_size - 2
    from ..protocol.roles import activation_spec

    bound_by_stage: dict[int, int] = {}
    worst_margin = float("inf")
    tightest = 0
    # (integer magnitude bound, its base-10 exponent)
    int_bound = int(np.ceil(input_bound * 10 ** decimals))
    exponent = decimals
    peak_bound = int_bound
    for stage in stages:
        if stage.kind is LayerKind.LINEAR:
            for primitive in stage.primitives:
                if isinstance(primitive.layer, Flatten):
                    continue
                weight_l1, bias_max = _layer_l1_and_bias(
                    primitive.layer, decimals
                )
                exponent += decimals
                bias_bound = int(np.ceil(bias_max * 10 ** exponent))
                int_bound = weight_l1 * int_bound + bias_bound
                # Interior primitives of a merged stage can exceed the
                # stage's final bound; the peak must cover them all.
                peak_bound = max(peak_bound, int_bound)
            int_bound = max(int_bound, 1)
            bound_by_stage[stage.index] = int_bound
            margin = float(limit_bits) - _log2_int(int_bound)
            if margin < worst_margin:
                worst_margin = margin
                tightest = stage.index
        else:
            activations = [activation_spec(p.layer)
                           for p in stage.primitives]
            float_bound = _activation_output_bound(
                activations, int_bound / 10 ** exponent
            )
            exponent = decimals
            int_bound = max(
                int(np.ceil(float_bound * 10 ** decimals)), 1
            )
            peak_bound = max(peak_bound, int_bound)
            bound_by_stage[stage.index] = int_bound
    return HeadroomReport(
        safe=worst_margin > 0,
        margin_bits=worst_margin,
        tightest_stage=tightest,
        bound_by_stage=bound_by_stage,
        peak_bound=max(peak_bound, 1),
    )


def _layer_l1_and_bias(layer, decimals: int) -> tuple[int, float]:
    """(max output-row L1 of the scaled-integer weights, max |bias|).

    Computed per layer type without materializing the dense unrolled
    matrix, so the analysis stays cheap for VGG-scale convolutions.
    """
    from ..nn.layers import (
        AvgPool2d,
        BatchNorm,
        Conv2d,
        ElementwiseScale,
        FullyConnected,
    )

    scale = 10 ** decimals
    if isinstance(layer, FullyConnected):
        int_w = np.round(layer.weight * scale)
        l1 = int(np.abs(int_w).sum(axis=1).max())
        return l1, float(np.abs(layer.bias).max(initial=0.0))
    if isinstance(layer, Conv2d):
        int_w = np.round(layer.weight * scale)
        # worst row: an interior output position seeing the full kernel
        l1 = int(np.abs(int_w).reshape(layer.out_channels, -1)
                 .sum(axis=1).max())
        return l1, float(np.abs(layer.bias).max(initial=0.0))
    if isinstance(layer, BatchNorm):
        bn_scale, bn_shift = layer.inference_affine()
        l1 = int(np.abs(np.round(bn_scale * scale)).max())
        return l1, float(np.abs(bn_shift).max(initial=0.0))
    if isinstance(layer, ElementwiseScale):
        return int(abs(round(float(layer.scale[0]) * scale))), 0.0
    if isinstance(layer, AvgPool2d):
        window = layer.kernel * layer.kernel
        return window * int(round(scale / window)), 0.0
    raise ScalingError(
        f"no headroom rule for layer {type(layer).__name__}"
    )


def _log2_int(value: int) -> float:
    """log2 of a possibly huge Python int."""
    if value < 1:
        return 0.0
    return float(value.bit_length() - 1)


@dataclass(frozen=True)
class LanePlan:
    """Lane-packing admission decision for one (model, key, batch).

    Attributes:
        lanes: requested batch-axis lane count.
        mag_bits: advertised per-lane magnitude bits, sized from the
            headroom analysis's :attr:`HeadroomReport.peak_bound`.
        guard_bits: extra slack bits per lane (pure safety margin —
            the peak bound already covers every intermediate).
        lane_bits: total lane width (``mag_bits + guard_bits + 1``).
        capacity: how many such lanes the key can carry.
        peak_bound: the peak magnitude that sized the lanes.
        admitted: True when the packed path may run.
        reason: why admission failed (None when admitted).
    """

    lanes: int
    mag_bits: int
    guard_bits: int
    lane_bits: int
    capacity: int
    peak_bound: int
    admitted: bool
    reason: str | None = None


def plan_lane_packing(
    model: Sequential,
    decimals: int,
    key_size: int,
    lanes: int,
    input_bound: float = 1.0,
    guard_bits: int | None = None,
) -> LanePlan:
    """Decide whether lane packing can carry ``lanes`` batch samples.

    Sizes lanes from the worst-case *peak* intermediate magnitude
    (:func:`analyze_headroom`), then checks the requested lane count
    against the key's capacity.  Capacity is computed conservatively
    from ``key_size - 2`` bits so a :class:`LanePacker` built from the
    actual modulus (whose bit length can fall one short of
    ``key_size``) always accepts an admitted plan.

    Returns a :class:`LanePlan`; callers branch on ``plan.admitted``
    and surface ``plan.reason`` in the fallback metrics.
    """
    from ..crypto.encoding import DEFAULT_GUARD_BITS

    if lanes < 1:
        raise ScalingError(f"lanes must be >= 1, got {lanes}")
    if guard_bits is None:
        guard_bits = DEFAULT_GUARD_BITS
    report = analyze_headroom(model, decimals, key_size, input_bound)
    peak = max(report.peak_bound, 1)
    mag_bits, lane_bits, capacity = _lane_sizing(report, key_size,
                                                 guard_bits)
    if not report.safe:
        admitted = False
        reason = (
            f"headroom analysis unsafe at stage "
            f"{report.tightest_stage} "
            f"({-report.margin_bits:.1f} bits over)"
        )
    elif capacity < lanes:
        admitted = False
        reason = (
            f"{lanes} lanes of {lane_bits} bits exceed the "
            f"{capacity}-lane capacity of a {key_size}-bit key"
        )
    else:
        admitted = True
        reason = None
    return LanePlan(
        lanes=lanes,
        mag_bits=mag_bits,
        guard_bits=guard_bits,
        lane_bits=lane_bits,
        capacity=capacity,
        peak_bound=peak,
        admitted=admitted,
        reason=reason,
    )


def _lane_sizing(report: HeadroomReport, key_size: int,
                 guard_bits: int) -> tuple[int, int, int]:
    """``(mag_bits, lane_bits, capacity)`` of lanes sized from the
    report's peak bound.  Capacity is counted from ``key_size - 2``
    bits so a :class:`~repro.crypto.encoding.LanePacker` built from the
    actual modulus (whose bit length can fall one short of
    ``key_size``) always accepts the geometry."""
    mag_bits = max(max(report.peak_bound, 1).bit_length(), 1)
    lane_bits = mag_bits + guard_bits + 1
    return mag_bits, lane_bits, max(0, (key_size - 2) // lane_bits)


@dataclass(frozen=True)
class FoldGeometry:
    """How a linear stage's outputs are folded into lane-packed
    ciphertexts (one :class:`~repro.crypto.encoding.LanePacker` per
    session).

    Attributes:
        lanes: values per folded ciphertext (``k``).  1 when two lanes
            do not fit the key or the headroom analysis cannot certify
            the model: the fold then degenerates to one value per
            ciphertext in a lane as wide as the key allows.
        mag_bits: magnitude bits of a lane — the headroom analysis's
            peak bound at unit input bound.
        guard_bits: slack on top of ``mag_bits``; every input with
            ``max|x| <= 2^guard_bits`` stays exact.
    """

    lanes: int
    mag_bits: int
    guard_bits: int = FOLD_GUARD_BITS

    @property
    def lane_bits(self) -> int:
        return self.mag_bits + self.guard_bits + 1

    @classmethod
    def single_lane(cls, key_size: int) -> "FoldGeometry":
        """One value per ciphertext, in a ``key_size - 2``-bit lane."""
        return cls(lanes=1, mag_bits=key_size - 3 - FOLD_GUARD_BITS)

    def packer(self, public_key):
        """The session's :class:`~repro.crypto.encoding.LanePacker`."""
        from ..crypto.encoding import LanePacker

        return LanePacker(public_key, lanes=self.lanes,
                          mag_bits=self.mag_bits,
                          guard_bits=self.guard_bits)


def fold_geometry(
    stages: Sequence[MergedPrimitive],
    decimals: int,
    key_size: int,
) -> FoldGeometry:
    """Size the output fold the way :func:`plan_lane_packing` sizes
    batch lanes: lanes of the peak bound's bits plus
    :data:`FOLD_GUARD_BITS`, as many as the key holds (at most
    :data:`MAX_FOLD_LANES`).

    The runtime (``ModelProvider``) and the cost model both call this,
    so the planner prices exactly the fold the runtime performs.
    """
    try:
        report = _analyze_stages(stages, decimals, key_size, 1.0)
    except ScalingError:
        return FoldGeometry.single_lane(key_size)
    mag_bits, _lane_bits, capacity = _lane_sizing(report, key_size,
                                                  FOLD_GUARD_BITS)
    if not report.safe or capacity < 2:
        return FoldGeometry.single_lane(key_size)
    return FoldGeometry(lanes=min(capacity, MAX_FOLD_LANES),
                        mag_bits=mag_bits)


def require_headroom(
    model: Sequential,
    decimals: int,
    key_size: int,
    input_bound: float = 1.0,
) -> HeadroomReport:
    """Like :func:`analyze_headroom` but raises when unsafe."""
    report = analyze_headroom(model, decimals, key_size, input_bound)
    if not report.safe:
        raise ScalingError(
            f"fixed-point overflow: stage {report.tightest_stage} "
            f"exceeds the signed range by {-report.margin_bits:.1f} "
            f"bits at key size {key_size}; increase the key size or "
            "reduce the scaling factor"
        )
    return report
