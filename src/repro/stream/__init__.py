"""Distributed stream-processing runtime (the AF-Stream stand-in).

A real, threaded pipeline: each merged primitive layer becomes a stage
with its own worker thread, connected by bounded channels.  Inference
requests flow through the stages concurrently, so multiple requests are
in flight at once — the paper's "treating inference data as real-time
data streams".

Each stage runs its party's stage object (:mod:`repro.protocol.stages`,
the same one an in-process session runs) on the stage's one thread.
The plan's ``y_i`` threads per stage are the planner's and simulator's
model of the paper's intra-stage threads: CPython's GIL serializes the
pure-Python big-integer work, so splitting a request across threads in
one process measured no faster (docs/PERFORMANCE.md), and the
multi-server scaling experiments run on the calibrated simulator
(DESIGN.md, substitution 1).
"""

from .channel import Channel, ChannelClosed
from .executors import (
    LinearStageExecutor,
    NonLinearStageExecutor,
    build_executors,
)
from .faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from .pipeline import Pipeline, RequestResult, StreamStats
from .retry import DeadLetter, RetryPolicy
from .supervisor import Supervisor
from .worker import StageWorker

__all__ = [
    "Channel",
    "ChannelClosed",
    "DeadLetter",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "LinearStageExecutor",
    "NonLinearStageExecutor",
    "build_executors",
    "Pipeline",
    "RequestResult",
    "RetryPolicy",
    "StreamStats",
    "StageWorker",
    "Supervisor",
]
