"""Per-stage service-time derivation from a plan and a cost model.

For each stage of a plan, compute the three latency components of
serving one request:

* ``compute``: cryptographic/plaintext work, divided by the stage's
  thread count (threads partition the output elements).
* ``intra_comm``: distributing inputs to the stage's threads and
  collecting their results.  This is where tensor partitioning acts
  (Section IV-D): without it every thread receives the whole input
  tensor and emits results one element at a time; with it, threads
  receive sub-tensors (receptive fields, for convolution chains) and
  emit one block each.
* ``transfer``: shipping the stage's output tensor across the network
  to the next stage's server (stages alternate between the model and
  data providers, so every boundary is a network hop).

Linear stages hand their outputs over folded (see
:func:`repro.scaling.headroom.fold_geometry`, the same geometry the
runtime uses): the model provider pays the Horner fold, the wire
carries one ciphertext per ``lanes`` values, and the data provider
decrypts that many (thread distribution is still priced per value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

from ..costs import CostModel, stage_compute_seconds
from ..errors import SimulationError
from ..nn.layers import Flatten, FullyConnected, LayerKind
from ..partitioning.receptive import partitioned_input_elements
from ..planner.plan import Plan
from ..scaling.headroom import fold_geometry


@dataclass(frozen=True)
class StageCost:
    """Latency components of one stage serving one request (seconds)."""

    compute: float
    intra_comm: float
    transfer: float

    @property
    def service(self) -> float:
        """Stage occupancy per request (compute + thread communication)."""
        return self.compute + self.intra_comm

    @property
    def total(self) -> float:
        return self.service + self.transfer


@lru_cache(maxsize=4096)
def _linear_comm_elements(stage, threads: int,
                          partitioning: bool) -> int:
    """Input elements shipped to the stage's threads for one request.

    Cached: the receptive-field union computation for wide conv stages
    is the expensive part of simulating a plan, and experiments sweep
    scaling factors / cost models over identical (stage, threads)
    pairs.
    """
    counts = stage.op_counts()
    if not partitioning:
        return threads * counts.input_size
    layers = []
    shapes = []
    dense = False
    for primitive in stage.primitives:
        if isinstance(primitive.layer, Flatten):
            continue
        if isinstance(primitive.layer, FullyConnected):
            dense = True
        layers.append(primitive.layer)
        shapes.append(primitive.input_shape)
    if dense or not layers:
        # Output-only partitioning: threads each need the whole input
        # (the paper: input partitioning applies to convolutions only).
        return threads * counts.input_size
    per_thread = partitioned_input_elements(
        layers, shapes, counts.output_size, threads
    )
    return sum(per_thread)


def intra_comm_seconds(
    stage,
    threads: int,
    partitioning: bool,
    cost_model: CostModel,
) -> float:
    """Thread-distribution communication time of one stage/request."""
    counts = stage.op_counts()
    if stage.kind is LayerKind.LINEAR:
        comm_in = _linear_comm_elements(stage, threads, partitioning)
        if partitioning:
            result_messages = threads
        else:
            result_messages = counts.output_size
        return (
            comm_in * (cost_model.serialize_element
                       + cost_model.ciphertext_bytes
                       / cost_model.network_bandwidth)
            + result_messages * cost_model.network_latency
            + counts.output_size * cost_model.serialize_element
        )
    return (
        counts.input_size * cost_model.serialize_element
        + threads * cost_model.network_latency
    )


def make_comm_model(cost_model: CostModel, partitioning: bool):
    """A ``(stage, threads) -> seconds`` callback for the allocator.

    Passing this to :func:`repro.planner.allocation.allocate_load_balanced`
    makes water-filling communication-aware: a thread is only granted
    when its compute gain beats its extra distribution cost.
    """
    def comm(stage, threads: int) -> float:
        return intra_comm_seconds(stage, threads, partitioning,
                                  cost_model)

    return comm


def stage_costs(
    plan: Plan,
    cost_model: CostModel,
    decimals: int,
) -> List[StageCost]:
    """Service/communication costs per stage for one request.

    Args:
        plan: deployment plan (threads + partitioning flag).
        cost_model: per-operation costs.
        decimals: selected scaling exponent ``f``.
    """
    if decimals < 0:
        raise SimulationError("decimals must be non-negative")
    costs: List[StageCost] = []
    partitioning = plan.use_tensor_partitioning
    fold = fold_geometry(plan.stages, decimals, cost_model.key_size)
    for stage in plan.stages:
        threads = plan.threads_for(stage.index)
        counts = stage.op_counts()
        compute = stage_compute_seconds(stage, cost_model, decimals,
                                        fold) / threads
        if stage.kind is LayerKind.LINEAR:
            # The output crosses the network folded.
            wire = -(-counts.output_size // fold.lanes)
        else:
            wire = counts.output_size
        intra = intra_comm_seconds(stage, threads, partitioning,
                                   cost_model)
        transfer = cost_model.transfer_time(wire, encrypted=True)
        costs.append(StageCost(compute=compute, intra_comm=intra,
                               transfer=transfer))
    return costs
