"""Per-stage executors: the stream operators around each party's stage.

A linear stage's executor runs the model provider's
:class:`~repro.protocol.stages.LinearStage`, a non-linear stage's the
data provider's :class:`~repro.protocol.stages.NonLinearStage` — the
same objects an in-process session runs through the providers.  An
executor only moves a :class:`StreamItem`'s tensor, obfuscation round
and result through its stage, on the stage's one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from ..errors import StreamError
from ..nn.layers import LayerKind
from ..planner.plan import Plan
from ..protocol.roles import DataProvider, ModelProvider
from ..protocol.stages import LinearStage, NonLinearStage
from .retry import DeadLetter


@dataclass
class StreamItem:
    """One inference request flowing through the pipeline.

    Attributes:
        request_id: monotone id assigned by the source.
        tensor: current encrypted tensor — scalar (a linear stage's
            output carries its certified bound) or lane-packed (a
            packed item carries a whole batch through the pipeline as
            one request); executors branch on the tensor type.
        obfuscation_round: outstanding obfuscator round id, if permuted.
        enqueue_time: perf-counter timestamp at admission.
        result: final probabilities once the sink stage ran.
        fault: set when the request was dead-lettered; downstream
            stages forward such tombstones untouched so the sink can
            account for every admitted request.
        trace_id: per-request trace id riding the item so every stage
            span (and retry/restart/dead-letter event) lands on the
            same trace; None when tracing is off.
        trace_parent: span id of the request's root span; stage spans
            attach under it.
    """

    request_id: int
    tensor: EncryptedTensor | PackedEncryptedTensor | None
    obfuscation_round: int | None = None
    enqueue_time: float = 0.0
    result: np.ndarray | None = None
    fault: DeadLetter | None = None
    trace_id: str | None = None
    trace_parent: str | None = None


class LinearStageExecutor:
    """Model-provider stream operator: one :class:`LinearStage` run per
    item."""

    def __init__(self, stage: LinearStage):
        self.stage = stage

    def process(self, item: StreamItem) -> StreamItem:
        if item.tensor is None:
            raise StreamError("linear stage received an empty item")
        item.tensor, item.obfuscation_round = self.stage.run(
            item.tensor, item.obfuscation_round
        )
        return item


class NonLinearStageExecutor:
    """Data-provider stream operator: one :class:`NonLinearStage` run
    per item."""

    def __init__(self, stage: NonLinearStage):
        self.stage = stage

    def process(self, item: StreamItem) -> StreamItem:
        if item.tensor is None:
            raise StreamError("non-linear stage received an empty item")
        out = self.stage.run(item.tensor)
        if self.stage.final:
            item.result = out
            item.tensor = None
            item.obfuscation_round = None
        else:
            # The tensor stays in permuted order; the obfuscation round
            # id is carried through untouched for the next linear stage.
            item.tensor = out
        return item


def build_executors(
    model_provider: ModelProvider,
    data_provider: DataProvider,
    plan: Plan,
) -> List[object]:
    """One executor per stage of ``plan``, each wrapping its party's
    stage object (:meth:`ModelProvider.linear_stage`,
    :meth:`DataProvider.nonlinear_stage`): every linear executor shares
    the model provider's engine, obfuscator and cached biases, every
    non-linear one the data provider's engine — mirroring where state
    physically lives.  The model provider must hold the public key.
    """
    executors: List[object] = []
    num_stages = len(plan.stages)
    for stage in plan.stages:
        if stage.kind is LayerKind.LINEAR:
            executors.append(LinearStageExecutor(
                model_provider.linear_stage(stage.index),
            ))
        else:
            executors.append(NonLinearStageExecutor(
                data_provider.nonlinear_stage(
                    model_provider.nonlinear_activations(stage.index),
                    final=stage.index == num_stages - 1,
                ),
            ))
    return executors
