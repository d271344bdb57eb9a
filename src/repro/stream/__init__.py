"""Distributed stream-processing runtime (the AF-Stream stand-in).

A real, threaded pipeline: each merged primitive layer becomes a stage
with its own worker thread and intra-stage thread pool (the plan's y_i
threads), connected by bounded channels.  Inference requests flow
through the stages concurrently, so multiple requests are in flight at
once — the paper's "treating inference data as real-time data streams".

Each stage runs its party's stage object (:mod:`repro.protocol.stages`,
the same one an in-process session runs).  Within a non-linear stage,
tensor partitioning splits each request into per-thread runs of
ciphertexts; a linear stage runs each layer whole.  Note: CPython's GIL
serializes pure-Python big-integer work, so intra-stage threading here
demonstrates correctness and pipelining rather than linear CPU scaling;
the multi-server scaling experiments run on the calibrated simulator
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
