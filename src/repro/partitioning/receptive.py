"""Analytic receptive-field computation for input partitioning.

Computes, without materializing dense matrices, which input elements a
set of output elements of a linear layer depends on.  Used by the
simulator to charge per-thread communication for large (e.g. VGG)
models, and chained backwards through merged linear stages.

Flat indices are row-major, matching :class:`EncryptedTensor` and the
obfuscator's lexicographic reshaping.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

from ..errors import PartitioningError
from ..nn.layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    ElementwiseScale,
    Flatten,
    FullyConnected,
    Layer,
)


def required_inputs(
    layer: Layer,
    input_shape: tuple[int, ...],
    output_indices: Iterable[int],
) -> Set[int]:
    """Flat input indices needed to produce the given flat outputs.

    Supported linear layers:
    * Conv2d / AvgPool2d — true receptive fields (local support).
    * BatchNorm / ElementwiseScale / Flatten — identity index mapping.
    * FullyConnected — every input (dense rows; the paper's reason
      input partitioning only helps convolutions).
    """
    outputs = set(int(i) for i in output_indices)
    if isinstance(layer, FullyConnected):
        if not outputs:
            return set()
        return set(range(layer.in_features))
    if isinstance(layer, (BatchNorm, ElementwiseScale, Flatten)):
        return outputs
    if isinstance(layer, Conv2d):
        return _conv_receptive(
            input_shape, layer.output_shape(input_shape), outputs,
            layer.kernel, layer.stride, layer.padding,
            depthwise=False,
        )
    if isinstance(layer, AvgPool2d):
        return _conv_receptive(
            input_shape, layer.output_shape(input_shape), outputs,
            layer.kernel, layer.stride, 0,
            depthwise=True,
        )
    raise PartitioningError(
        f"no receptive-field rule for layer {type(layer).__name__}"
    )


def _conv_receptive(
    input_shape: tuple[int, ...],
    output_shape: tuple[int, ...],
    outputs: Set[int],
    kernel: int,
    stride: int,
    padding: int,
    depthwise: bool,
) -> Set[int]:
    in_c, in_h, in_w = input_shape
    out_c, out_h, out_w = output_shape
    needed: Set[int] = set()
    plane = out_h * out_w
    for flat in outputs:
        oc, rest = divmod(flat, plane)
        i, j = divmod(rest, out_w)
        if not 0 <= oc < out_c:
            raise PartitioningError(
                f"output index {flat} out of range for shape {output_shape}"
            )
        top = i * stride - padding
        left = j * stride - padding
        channels = (oc,) if depthwise else range(in_c)
        for ic in channels:
            for ki in range(kernel):
                y_pos = top + ki
                if not 0 <= y_pos < in_h:
                    continue
                for kj in range(kernel):
                    x_pos = left + kj
                    if 0 <= x_pos < in_w:
                        needed.add((ic * in_h + y_pos) * in_w + x_pos)
    return needed


def chain_required_inputs(
    layers: Sequence[Layer],
    shapes: Sequence[tuple[int, ...]],
    output_indices: Iterable[int],
) -> Set[int]:
    """Propagate required indices backwards through a merged linear
    stage.

    Args:
        layers: the stage's fused layers, in forward order.
        shapes: per-layer *input* shapes (len == len(layers)).
        output_indices: flat outputs of the final layer the thread must
            produce.
    """
    if len(layers) != len(shapes):
        raise PartitioningError("layers and shapes length mismatch")
    needed = set(int(i) for i in output_indices)
    for layer, shape in zip(reversed(layers), reversed(list(shapes))):
        needed = required_inputs(layer, shape, needed)
    return needed


def partitioned_input_elements(
    layers: Sequence[Layer],
    shapes: Sequence[tuple[int, ...]],
    output_size: int,
    threads: int,
) -> list[int]:
    """Per-thread input element counts for a partitioned linear stage.

    Output elements are split into contiguous near-equal blocks, the
    first ``output_size % threads`` one element longer (the paper's
    output tensor partitioning, Section IV-D), and each block's
    required inputs are chained backwards.
    """
    if threads < 1:
        raise PartitioningError("threads must be >= 1")
    threads = min(threads, output_size)
    base, extra = divmod(output_size, threads)
    counts = []
    start = 0
    for index in range(threads):
        size = base + (1 if index < extra else 0)
        block = range(start, start + size)
        counts.append(
            len(chain_required_inputs(layers, shapes, block))
        )
        start += size
    return counts
