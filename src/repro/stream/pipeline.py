"""The assembled inference pipeline: source -> stages -> sink.

:class:`Pipeline` wires one :class:`StageWorker` per merged primitive
layer with bounded channels, admits a stream of raw input tensors from
a producer thread, and collects per-request latency plus aggregate
throughput.  This is the real (threaded, crypto-correct) counterpart
of the discrete-event simulator: identical plans, identical stage
semantics, actual Paillier arithmetic.

Fault tolerance (docs/FAULT_TOLERANCE.md): stage workers retry
transient failures under a :class:`~repro.stream.retry.RetryPolicy`;
a request that hits a permanent error, exhausts its retries, or blows
its deadline is **dead-lettered** — recorded in
:class:`StreamStats.dead_letters` with reason and attempt count while
every other request completes normally.  A
:class:`~repro.stream.supervisor.Supervisor` restarts crashed workers
within a restart budget and performs orderly drain-and-shutdown when
a failure is fatal, so :meth:`Pipeline.run_stream` never leaves live
worker threads behind.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..errors import StageFailedError, StreamError
from ..observability import OBS_OFF, Observability
from ..planner.plan import Plan
from ..protocol.roles import DataProvider, ModelProvider
from .channel import Channel, ChannelClosed
from .executors import StreamItem, build_executors
from .faults import FaultPlan, wrap_executors
from .retry import DeadLetter, RetryPolicy
from .supervisor import Supervisor
from .worker import StageWorker


@dataclass(frozen=True)
class RequestResult:
    """Outcome of one streamed inference request.

    Attributes:
        request_id: admission order.
        prediction: argmax class.
        probabilities: final activation vector.
        latency: seconds from admission to completion.
    """

    request_id: int
    prediction: int
    probabilities: np.ndarray
    latency: float


@dataclass
class StreamStats:
    """Aggregate pipeline statistics for one run."""

    results: List[RequestResult] = field(default_factory=list)
    dead_letters: List[DeadLetter] = field(default_factory=list)
    wall_time: float = 0.0
    stage_busy_seconds: List[float] = field(default_factory=list)
    stage_items: List[int] = field(default_factory=list)
    stage_retries: List[int] = field(default_factory=list)
    stage_backoff_events: List[int] = field(default_factory=list)
    stage_restarts: List[int] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        """Mean completion latency in seconds.

        NaN when no request completed (e.g. every request was
        dead-lettered) — a run with zero completions is a legitimate
        outcome of the fault-tolerant path, not an API misuse, so it
        must not raise.
        """
        if not self.results:
            return float("nan")
        return float(np.mean([r.latency for r in self.results]))

    @property
    def throughput(self) -> float:
        if self.wall_time <= 0:
            raise StreamError("wall time not recorded")
        return len(self.results) / self.wall_time

    @property
    def total_retries(self) -> int:
        return sum(self.stage_retries)

    @property
    def total_backoff_events(self) -> int:
        return sum(self.stage_backoff_events)

    @property
    def total_restarts(self) -> int:
        return sum(self.stage_restarts)

    def stage_utilizations(self) -> List[float]:
        """Fraction of the run each stage spent busy (its pipeline
        occupancy); the bottleneck stage is the one nearest 1.0."""
        if self.wall_time <= 0:
            raise StreamError("wall time not recorded")
        return [busy / self.wall_time
                for busy in self.stage_busy_seconds]

    def failure_report(self) -> str:
        """Human-readable dead-letter summary for one run."""
        if not self.dead_letters:
            return "no dead-lettered requests"
        lines = [f"{len(self.dead_letters)} dead-lettered request(s):"]
        for letter in sorted(self.dead_letters,
                             key=lambda d: d.request_id):
            lines.append(f"  {letter.describe()}")
        return "\n".join(lines)

    def utilization_report(self) -> str:
        """Human-readable per-stage occupancy table for one run."""
        completed = len(self.results)
        latency = (f", mean latency {self.mean_latency:.2f}s"
                   if self.results else "")
        failures = (f", {len(self.dead_letters)} dead-lettered"
                    if self.dead_letters else "")
        lines = [
            f"{completed} requests in {self.wall_time:.2f}s "
            f"({self.throughput:.2f} req/s{latency}{failures})"
        ]
        utilizations = self.stage_utilizations()
        bottleneck = max(range(len(utilizations)),
                         key=lambda i: utilizations[i]) \
            if utilizations else -1
        for index, utilization in enumerate(utilizations):
            bar = "#" * int(round(utilization * 30))
            marker = "  <- bottleneck" if index == bottleneck else ""
            extras = ""
            if index < len(self.stage_retries) \
                    and self.stage_retries[index]:
                extras += f" retries={self.stage_retries[index]}"
            if index < len(self.stage_backoff_events) \
                    and self.stage_backoff_events[index]:
                extras += (" backoffs="
                           f"{self.stage_backoff_events[index]}")
            if index < len(self.stage_restarts) \
                    and self.stage_restarts[index]:
                extras += f" restarts={self.stage_restarts[index]}"
            lines.append(
                f"  stage {index}: {utilization:6.1%} |{bar:<30}|"
                f"{extras}{marker}"
            )
        if self.dead_letters:
            lines.append(self.failure_report())
        return "\n".join(lines)


class Pipeline:
    """A runnable pipeline bound to two parties and a plan.

    Args:
        model_provider / data_provider / plan: the two parties and the
            stage plan (as before).
        channel_capacity: bounded inter-stage queue depth.
        max_retries: legacy knob — when ``retry_policy`` is omitted,
            builds an immediate (no-backoff) policy.
        retry_policy: backoff + classification policy for every stage.
        request_deadline: per-request seconds from admission before a
            request is dead-lettered instead of processed further.
        fault_plan: scripted faults for robustness testing
            (:mod:`repro.stream.faults`).
        restart_budget: crashed-worker restarts allowed per stage.
        sink_timeout: max seconds the sink drain waits for any single
            item before forcing shutdown.
        executors: override the stage executors (one per plan stage)
            instead of building the in-process ones — the networked
            runtime passes remote stage proxies here so the thread
            pipeline and the network pipeline share this exact
            admission/retry/dead-letter/supervision code path.
        obs: observability sinks shared by admission, every stage
            worker, and the supervisor.  Defaults to the model
            provider's (then the data provider's) instance when one of
            them has observability enabled, else the no-op twins.
    """

    def __init__(
        self,
        model_provider: ModelProvider,
        data_provider: DataProvider,
        plan: Plan,
        channel_capacity: int = 8,
        max_retries: int = 0,
        retry_policy: RetryPolicy | None = None,
        request_deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
        restart_budget: int = 2,
        sink_timeout: float = 300.0,
        executors: Sequence | None = None,
        obs: Observability | None = None,
    ):
        model_provider.register_public_key(data_provider.public_key)
        self.plan = plan
        self.model_provider = model_provider
        self.data_provider = data_provider
        if obs is None:
            for candidate in (getattr(model_provider, "obs", None),
                              getattr(data_provider, "obs", None)):
                if candidate is not None and candidate.enabled:
                    obs = candidate
                    break
        self.obs = obs if obs is not None else OBS_OFF
        self._executors = wrap_executors(
            list(executors) if executors is not None
            else build_executors(model_provider, data_provider, plan,
                                 obs=self.obs),
            fault_plan,
        )
        self._channel_capacity = channel_capacity
        self._retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy.immediate(max_retries)
        )
        self._request_deadline = request_deadline
        self._restart_budget = restart_budget
        self._sink_timeout = sink_timeout

    def run_stream(self, inputs: Sequence[np.ndarray]) -> StreamStats:
        """Push all inputs through the pipeline; block until drained.

        Inputs are admitted from a producer thread, so the bounded
        source channel backpressures admission against sink draining
        instead of deadlocking when ``len(inputs)`` exceeds total
        channel capacity.

        Returns partial results plus a failure report
        (:class:`StreamStats.dead_letters`) when some requests were
        dead-lettered; raises :class:`StageFailedError` only on a
        fatal runtime failure (a stage exhausted its restart budget),
        after an orderly drain-and-shutdown; raises
        :class:`~repro.errors.EncodingError` up front, before anything
        runs, when an input exceeds the certified range
        (:meth:`DataProvider.check_input`).
        """
        inputs = list(inputs)
        if not inputs:
            raise StreamError("no inputs to stream")
        # Refuse an uncertified input before anything is encrypted or
        # any stage starts (raises EncodingError).
        inputs = [self.data_provider.check_input(raw) for raw in inputs]
        num_stages = len(self._executors)
        channels = [
            Channel(self._channel_capacity) for _ in range(num_stages + 1)
        ]
        workers = [
            StageWorker(
                name=f"stage-{index}",
                executor=executor,
                inbound=channels[index],
                outbound=channels[index + 1],
                retry_policy=self._retry_policy,
                deadline=self._request_deadline,
                dead_letter=True,
                stage_index=index,
                seed=index,
                obs=self.obs,
            )
            for index, executor in enumerate(self._executors)
        ]
        supervisor = Supervisor(
            workers, channels, restart_budget=self._restart_budget,
            obs=self.obs,
        )

        stats = StreamStats()
        source = channels[0]
        sink = channels[-1]
        tracer = self.obs.tracer
        # Per-request root spans: opened on the producer thread,
        # finished at the sink drain (hence begin_span, not the
        # context manager).  With tracing off these are all the
        # NULL_SPAN singleton.
        roots: dict = {}

        def admit() -> None:
            # Producer thread: encrypt + enqueue under backpressure.
            try:
                for request_id, raw in enumerate(inputs):
                    trace_id = tracer.new_trace_id(f"req{request_id}")
                    root = tracer.begin_span(
                        "request", trace_id=trace_id,
                        request_id=request_id,
                    )
                    roots[request_id] = root
                    with tracer.span(
                        "admit", trace_id=trace_id,
                        parent_id=root.span_id, request_id=request_id,
                    ):
                        tensor = self.data_provider.encrypt_input(
                            np.asarray(raw)
                        )
                        source.put(StreamItem(
                            request_id=request_id,
                            tensor=tensor,
                            enqueue_time=time.perf_counter(),
                            trace_id=trace_id,
                            trace_parent=root.span_id,
                        ))
                source.close()
            except StreamError:
                # Fatal shutdown closed the source mid-admission; the
                # supervisor's failure report covers it.
                pass

        producer = threading.Thread(
            target=admit, name="repro-stream-source", daemon=True
        )
        start_wall = time.perf_counter()
        supervisor.start()
        producer.start()

        accounted = 0
        drain_error: StreamError | None = None
        while accounted < len(inputs):
            try:
                item = sink.get(timeout=self._sink_timeout)
            except ChannelClosed:
                break  # fatal shutdown closed the sink
            except StreamError as exc:
                drain_error = exc
                supervisor.shutdown()
                break
            if item.fault is not None:
                accounted += 1
                root = roots.pop(item.request_id, None)
                if root is not None:
                    root.set_attr("outcome", "dead-letter")
                    root.finish()
                continue
            if item.result is None:
                drain_error = StreamError(
                    f"request {item.request_id} exited without a result"
                )
                supervisor.shutdown()
                break
            stats.results.append(RequestResult(
                request_id=item.request_id,
                prediction=int(np.asarray(item.result).argmax()),
                probabilities=np.asarray(item.result),
                latency=time.perf_counter() - item.enqueue_time,
            ))
            accounted += 1
            root = roots.pop(item.request_id, None)
            if root is not None:
                root.set_attr("outcome", "completed")
                root.finish()
        stats.wall_time = time.perf_counter() - start_wall

        supervisor.join(timeout=60.0)
        producer.join(timeout=10.0)
        for root in roots.values():
            # Requests stranded by a fatal shutdown still get a closed
            # root span so no trace is left dangling.
            root.set_attr("outcome", "aborted")
            root.finish()
        roots.clear()
        stats.stage_busy_seconds = supervisor.stage_busy_seconds()
        stats.stage_items = supervisor.stage_items()
        stats.stage_retries = supervisor.stage_retries()
        stats.stage_backoff_events = supervisor.stage_backoff_events()
        stats.stage_restarts = supervisor.stage_restarts
        stats.dead_letters = supervisor.dead_letters()

        if supervisor.fatal_error is not None:
            raise supervisor.fatal_error
        if drain_error is not None:
            raise drain_error
        completed = len(stats.results) + len(stats.dead_letters)
        if completed < len(inputs):
            raise StreamError(
                f"pipeline drained after {completed}/{len(inputs)} "
                "requests"
            )
        return stats
