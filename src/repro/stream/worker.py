"""Stage workers: one thread per stage pulling from its input channel.

A :class:`StageWorker` loops: get item -> executor.process -> put item
downstream, until the input channel closes.  Failures are handled per
the worker's :class:`~repro.stream.retry.RetryPolicy`:

* transient errors are retried with exponential backoff + jitter;
* permanent errors (and exhausted retries, and blown deadlines) either
  **dead-letter** the request — the item is tagged with a
  :class:`~repro.stream.retry.DeadLetter` and forwarded downstream as
  a tombstone so the sink can account for it — or, for an
  unsupervised stand-alone worker, are re-raised at :meth:`join` as
  :class:`StageFailedError` (the historical fail-loud posture);
* :class:`~repro.errors.WorkerCrashError` (and any failure outside
  item processing) kills the worker thread; a supervisor may restart
  it and re-inject the in-flight item.

Workers publish a heartbeat timestamp each loop iteration so the
supervisor can observe liveness, and call their ``on_exit`` hook as
the last thing their thread does (after :meth:`StageWorker.finalize`
on completion, right after recording a crash), so a supervisor learns
of every exit the moment it happens instead of on its next poll.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from ..errors import (
    DeadlineExceededError,
    StageFailedError,
    StreamError,
    WorkerCrashError,
)
from ..observability import OBS_OFF, Observability
from ..observability.tracing import NULL_SPAN
from .channel import Channel, ChannelClosed
from .retry import (
    REASON_DEADLINE,
    REASON_EXHAUSTED,
    REASON_PERMANENT,
    REASON_SHUTDOWN,
    DeadLetter,
    RetryBudgetLedger,
    RetryPolicy,
)


class StageWorker:
    """Runs one stage executor against its channels on a daemon thread.

    Args:
        name: thread / diagnostic name.
        executor: object with ``process(item)``.
        inbound: channel the worker consumes.
        outbound: channel the worker produces into (None for a final
            consumer).
        retry_policy: full backoff/classification policy; omitted,
            no retries (``RetryPolicy.immediate(0)``).
        deadline: per-request seconds from admission
            (``item.enqueue_time``) before the request is
            dead-lettered unprocessed.
        dead_letter: route failed requests to the dead-letter path
            (tombstone-forwarded downstream) instead of failing the
            worker.  The pipeline always enables this; stand-alone
            workers default to the historical fail-loud behaviour.
        stage_index: pipeline position recorded on dead letters.
        seed: backoff-jitter RNG seed (deterministic per worker).
        obs: observability sinks (:mod:`repro.observability`); the
            worker records a per-stage service-time histogram, a
            queue-depth gauge, retry/dead-letter counters, and one
            ``stage-N`` span per item (with ``retry`` / ``dead-letter``
            child events) into them.  Defaults to the no-op twins.
    """

    def __init__(
        self,
        name: str,
        executor,
        inbound: Channel,
        outbound: Optional[Channel],
        retry_policy: RetryPolicy | None = None,
        deadline: float | None = None,
        dead_letter: bool = False,
        stage_index: int = -1,
        seed: int = 0,
        obs: Observability | None = None,
    ):
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive seconds")
        self.name = name
        self.executor = executor
        self.inbound = inbound
        self.outbound = outbound
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.immediate(0))
        self.deadline = deadline
        self.dead_letter = dead_letter
        self.stage_index = stage_index
        self.items_processed = 0
        self.busy_seconds = 0.0
        self.ledger = RetryBudgetLedger()
        self.last_heartbeat = time.monotonic()
        self.inflight = None
        self.inflight_processed = False
        self.supervised = False
        self.crashed = False
        self.completed = False
        #: Called with no arguments on the worker thread once it has
        #: finished for good (completed or crashed); the supervisor
        #: wakes its monitor with it.
        self.on_exit: Optional[Callable[[], None]] = None
        self._exited = False
        self._seed = seed
        self._rng = random.Random(seed)
        self._error: BaseException | None = None
        self._finalized = False
        self.obs = obs if obs is not None else OBS_OFF
        self._tracer = self.obs.tracer
        stage_label = str(stage_index)
        registry = self.obs.registry
        self._m_service = registry.histogram(
            "stream_stage_service_seconds", stage=stage_label
        )
        self._m_terminal = registry.histogram(
            "stream_terminal_seconds", stage=stage_label
        )
        self._m_queue = registry.gauge("stream_queue_depth",
                                       stage=stage_label)
        self._m_retries = registry.counter("stream_retries",
                                           stage=stage_label)
        # Per-worker twins of the queue gauge: remote executors report
        # which cluster member served the last item (worker_label), so
        # backlog attributes to a specific member while the unlabeled
        # aggregate above keeps feeding existing dashboards.
        self._registry = registry
        self._stage_label = stage_label
        self._worker_queues: dict[str, object] = {}
        # Thread names carry the package-wide ``repro-`` prefix so
        # leak-sentinel and soak reports attribute every thread to its
        # subsystem; ``name`` stays as given for diagnostics.
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=(name if name.startswith("repro-")
                  else f"repro-{name}"),
        )

    # -- introspection -------------------------------------------------

    @property
    def max_retries(self) -> int:
        return self.retry_policy.max_retries

    @property
    def retries(self) -> int:
        return self.ledger.retries

    @property
    def backoff_events(self) -> int:
        return self.ledger.backoff_events

    @property
    def error(self) -> BaseException | None:
        return self._error

    def is_alive(self) -> bool:
        """True while the worker is still running its loop.  A worker
        that has completed or crashed is not alive even while its
        thread is still returning from the exit hook."""
        return self._thread.is_alive() and not self._exited

    def heartbeat_age(self) -> float:
        return time.monotonic() - self.last_heartbeat

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def respawn(self) -> "StageWorker":
        """A fresh worker bound to the same executor and channels.

        The replacement shares this worker's ledger so retry /
        dead-letter counters accumulate across restarts.
        """
        clone = StageWorker(
            name=self.name,
            executor=self.executor,
            inbound=self.inbound,
            outbound=self.outbound,
            retry_policy=self.retry_policy,
            deadline=self.deadline,
            dead_letter=self.dead_letter,
            stage_index=self.stage_index,
            seed=self._seed + 1,
            obs=self.obs,
        )
        clone.ledger = self.ledger
        clone.supervised = self.supervised
        clone.on_exit = self.on_exit
        return clone

    # -- processing ----------------------------------------------------

    def _deadline_blown(self, item) -> bool:
        enqueue = getattr(item, "enqueue_time", None)
        return (self.deadline is not None and enqueue is not None
                and time.perf_counter() - enqueue > self.deadline)

    def _fail(self, item, reason: str, attempts: int,
              exc: BaseException | None, span=NULL_SPAN):
        """Dead-letter the item (tombstone) or re-raise fail-loud."""
        if not self.dead_letter:
            if exc is not None:
                raise exc
            raise DeadlineExceededError(
                f"request {getattr(item, 'request_id', '?')} blew its "
                f"{self.deadline}s deadline at stage {self.name}"
            )
        letter = DeadLetter(
            request_id=int(getattr(item, "request_id", -1)),
            stage=self.stage_index,
            reason=reason,
            attempts=attempts,
            error=repr(exc) if exc is not None else "",
        )
        self.ledger.dead_letters.append(letter)
        item.fault = letter
        self.obs.registry.counter(
            "stream_dead_letters", stage=str(self.stage_index),
            reason=reason,
        ).inc()
        self._tracer.event(
            "dead-letter",
            trace_id=getattr(item, "trace_id", None),
            parent_id=span.span_id,
            request_id=letter.request_id,
            stage=self.stage_index,
            reason=reason,
            attempts=attempts,
        )
        enqueue = getattr(item, "enqueue_time", None)
        if enqueue:
            self._m_terminal.observe(time.perf_counter() - enqueue)
        return item

    def _process_with_retries(self, item, span=NULL_SPAN):
        """Run the executor under the retry policy.

        Returns the processed item, or the original item tagged with a
        :class:`DeadLetter` (dead-letter mode).  Raises on crash-class
        errors and, in fail-loud mode, on any terminal failure.
        """
        if self._deadline_blown(item):
            return self._fail(item, REASON_DEADLINE, 0, None, span)
        attempt = 0
        while True:
            self.last_heartbeat = time.monotonic()
            try:
                return self.executor.process(item)
            except WorkerCrashError:
                raise  # worker-scope failure: not an item problem
            except Exception as exc:  # noqa: BLE001 - classified below
                attempt += 1
                if not self.retry_policy.is_transient(exc):
                    return self._fail(item, REASON_PERMANENT,
                                      attempt, exc, span)
                if attempt > self.retry_policy.max_retries:
                    return self._fail(item, REASON_EXHAUSTED,
                                      attempt, exc, span)
                self.ledger.retries += 1
                self._m_retries.inc()
                delay = self.retry_policy.backoff_delay(
                    attempt, self._rng
                )
                self._tracer.event(
                    "retry",
                    trace_id=getattr(item, "trace_id", None),
                    parent_id=span.span_id,
                    request_id=getattr(item, "request_id", None),
                    stage=self.stage_index,
                    attempt=attempt,
                    backoff_seconds=delay,
                    error=repr(exc),
                )
                if delay > 0:
                    self.ledger.backoff_events += 1
                    self.ledger.backoff_seconds += delay
                    time.sleep(delay)
                if self._deadline_blown(item):
                    return self._fail(item, REASON_DEADLINE,
                                      attempt, exc, span)

    def _forward(self, item) -> None:
        if self.outbound is None:
            return
        try:
            self.outbound.put(item)
        except StreamError as exc:
            # Never lose the request silently: name it in the failure.
            request_id = getattr(item, "request_id", "?")
            raise StreamError(
                f"stage {self.name} could not forward request "
                f"{request_id} downstream: {exc}"
            ) from exc

    def _run(self) -> None:
        try:
            self._loop()
        finally:
            self._exited = True
            if self.on_exit is not None:
                self.on_exit()

    def _loop(self) -> None:
        try:
            while True:
                self.last_heartbeat = time.monotonic()
                try:
                    item = self.inbound.get()
                except ChannelClosed:
                    break
                self.inflight = item
                self.inflight_processed = False
                depth = self.inbound.approx_size()
                self._m_queue.set(depth)
                label = getattr(self.executor, "worker_label", None)
                if label is not None:
                    gauge = self._worker_queues.get(label)
                    if gauge is None:
                        gauge = self._registry.gauge(
                            "stream_queue_depth",
                            stage=self._stage_label, worker=label,
                        )
                        self._worker_queues[label] = gauge
                    gauge.set(depth)
                if getattr(item, "fault", None) is not None:
                    self.inflight_processed = True
                    self._forward(item)  # tombstone pass-through
                    self.inflight = None
                    continue
                start = time.perf_counter()
                with self._tracer.span(
                    f"stage-{self.stage_index}",
                    trace_id=getattr(item, "trace_id", None),
                    parent_id=getattr(item, "trace_parent", None),
                    request_id=getattr(item, "request_id", None),
                    stage=self.stage_index,
                ) as span:
                    item = self._process_with_retries(item, span)
                elapsed = time.perf_counter() - start
                self.busy_seconds += elapsed
                self._m_service.observe(elapsed)
                if getattr(item, "fault", None) is None:
                    self.items_processed += 1
                    # A set result marks the request's terminal stage
                    # (the final executor produced the probabilities).
                    if getattr(item, "result", None) is not None:
                        enqueue = getattr(item, "enqueue_time", None)
                        if enqueue:
                            self._m_terminal.observe(
                                time.perf_counter() - enqueue
                            )
                self.inflight = item
                self.inflight_processed = True
                self._forward(item)
                self.inflight = None
        except BaseException as exc:  # noqa: BLE001 - reported at join
            self._error = exc
            self.crashed = True
            if not self.supervised:
                # Nobody will restart us: release downstream consumers.
                self.finalize()
            return
        self.completed = True
        self.finalize()

    def finalize(self) -> None:
        """Close the outbound channel.

        Idempotent; called on normal completion, on unsupervised
        crash, and by the supervisor when it gives a stage up.

        In dead-letter mode, items still stranded in the inbound
        channel are tombstoned (:data:`REASON_SHUTDOWN`) and forwarded
        before the outbound closes — a peer disconnect or fatal
        shutdown mid-stream thus drains to dead letters the sink can
        account for, instead of hanging the drain loop on requests
        nobody will ever deliver."""
        if self._finalized:
            return
        self._finalized = True
        if self.dead_letter:
            self._drain_to_dead_letters()
        if self.outbound is not None:
            self.outbound.close()

    def _drain_to_dead_letters(self) -> None:
        for item in self.inbound.drain():
            if getattr(item, "fault", None) is None:
                letter = DeadLetter(
                    request_id=int(getattr(item, "request_id", -1)),
                    stage=self.stage_index,
                    reason=REASON_SHUTDOWN,
                    attempts=0,
                    error="stage shut down with the item still queued",
                )
                self.ledger.dead_letters.append(letter)
                item.fault = letter
                self.obs.registry.counter(
                    "stream_dead_letters", stage=str(self.stage_index),
                    reason=REASON_SHUTDOWN,
                ).inc()
            if self.outbound is not None:
                # put_front: never blocks and works after close, so the
                # tombstone still reaches the sink if it is listening.
                self.outbound.put_front(item)

    def join(self, timeout: float | None = None) -> None:
        """Wait for the worker; re-raise any captured stage failure."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise StageFailedError(f"stage {self.name} did not finish")
        if self._error is not None:
            raise StageFailedError(
                f"stage {self.name} failed: {self._error!r}"
            ) from self._error

    def join_quietly(self, timeout: float | None = None) -> bool:
        """Join without raising; True when the thread has exited."""
        self._thread.join(timeout)
        return not self._thread.is_alive()
