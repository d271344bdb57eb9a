"""Job lifecycle for the serving gateway: FSM, tracker, dispatcher.

Every request admitted through the gateway becomes a :class:`Job`
stepping through a small state machine::

    QUEUED ──> RUNNING ──> DONE
       │          ├──────> FAILED
       │          └──────> DEADLINE
       ├──> SHED                (admission control refused it)
       ├──> DEADLINE            (expired while still queued)
       └──> FAILED              (gateway shutdown drained the queue)

Terminal states (``DONE`` / ``FAILED`` / ``SHED`` / ``DEADLINE``)
absorb: any further transition raises
:class:`~repro.errors.JobStateError`, so a job can never be
double-terminal and the accounting identity *accepted + shed ==
submitted* holds exactly under any interleaving (the concurrency test
battery hammers this).

The :class:`JobManager` owns a bounded queue plus one dispatcher
thread (``repro-serve-dispatch``).  Admission control sheds instead
of queueing when the queue is at
:attr:`~repro.config.RuntimeConfig.serve_queue_capacity` or the
tenant is at :attr:`~repro.config.RuntimeConfig.serve_tenant_quota`
in-flight jobs — the gateway maps a shed job to HTTP 503 +
``Retry-After``.

Scheduling is continuous batching per tenant, one dispatch at a time:
the dispatcher takes the tenant of the oldest queued job, pops **all**
of that tenant's queued jobs into one dispatch (jobs whose deadline
already passed go ``DEADLINE`` on the way) and hands them to the
runner together, which returns one outcome per job.  Each job still
takes its own FSM edges.  A dispatch's coordinator work runs on the
gateway's one interpreter, as do the fleets hosted beside a gateway,
so a second dispatch beside the first would buy no parallelism;
running them in turn lets the other tenants' queues fill meanwhile,
and each dispatch packs more jobs into the same crypto.  The oldest
job picks the next tenant, so a chatty tenant still gets one dispatch
per turn, bounded by its quota.  The cost: a dispatch that blocks (a
retry backoff, a reconnect after a fleet worker died) holds the other
tenants back until the stream's retry policy or the jobs' deadlines
end it.  The ``serve_batch_jobs{tenant}`` histogram counts jobs per
dispatch.
"""

from __future__ import annotations

import math
import threading
import time
import uuid
from collections import deque
from typing import Callable, Deque, Dict, List, Sequence

from ..errors import DeadlineExceededError, JobStateError, ServeError
from ..observability import OBS_OFF, Observability
from ..observability.metrics import SIZE_BUCKETS

#: Job states (values are the wire/JSON form).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
SHED = "shed"
DEADLINE = "deadline"

#: The only legal edges of the job state machine.
LEGAL_TRANSITIONS: Dict[str, frozenset] = {
    QUEUED: frozenset({RUNNING, SHED, DEADLINE, FAILED}),
    RUNNING: frozenset({DONE, FAILED, DEADLINE}),
    DONE: frozenset(),
    FAILED: frozenset(),
    SHED: frozenset(),
    DEADLINE: frozenset(),
}

#: States with no outgoing edges.
TERMINAL_STATES = frozenset({DONE, FAILED, SHED, DEADLINE})


def check_deadline(seconds: float) -> float:
    """Return a per-request deadline in seconds, refusing a malformed
    one: NaN, ±inf or a negative budget is a client error, not "no
    deadline" (0 keeps its documented meaning: disabled)."""
    if not math.isfinite(seconds) or seconds < 0:
        raise ServeError(
            "deadline must be finite, non-negative seconds "
            f"(0 disables), got {seconds!r}"
        )
    return seconds


class Job:
    """One inference request moving through the gateway.

    Attributes:
        job_id: opaque unique id handed back to the client.
        tenant: owning tenant name; status reads from any other
            tenant are refused by the gateway.
        payload: the raw input tensor (opaque to this module).
        deadline: absolute monotonic time after which the job is
            dead (None = no deadline).
        state: current FSM state; mutate only via :meth:`transition`.
        result: the runner's result payload, set before ``DONE``.
        error: repr of the failure, set before ``FAILED`` /
            ``DEADLINE``.
    """

    __slots__ = (
        "job_id", "tenant", "payload", "deadline", "state", "result",
        "error", "submitted_unix", "submitted_monotonic",
        "started_monotonic", "finished_monotonic", "queue_seconds",
        "service_seconds", "_lock",
    )

    def __init__(self, tenant: str, payload,
                 deadline: float | None = None,
                 job_id: str | None = None):
        self.job_id = job_id if job_id is not None else uuid.uuid4().hex
        self.tenant = tenant
        self.payload = payload
        self.deadline = deadline
        self.state = QUEUED
        self.result = None
        self.error: str | None = None
        self.submitted_unix = time.time()
        self.submitted_monotonic = time.monotonic()
        self.started_monotonic: float | None = None
        self.finished_monotonic: float | None = None
        self.queue_seconds: float | None = None
        self.service_seconds: float | None = None
        self._lock = threading.Lock()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new_state: str) -> None:
        """Step the FSM; raises :class:`JobStateError` on any edge
        not in :data:`LEGAL_TRANSITIONS` (including *any* transition
        out of a terminal state)."""
        if new_state not in LEGAL_TRANSITIONS:
            raise JobStateError(
                f"job {self.job_id}: unknown state {new_state!r}"
            )
        with self._lock:
            if new_state not in LEGAL_TRANSITIONS[self.state]:
                raise JobStateError(
                    f"job {self.job_id}: illegal transition "
                    f"{self.state} -> {new_state}"
                )
            now = time.monotonic()
            if new_state == RUNNING:
                self.started_monotonic = now
                self.queue_seconds = now - self.submitted_monotonic
            elif new_state in TERMINAL_STATES:
                self.finished_monotonic = now
                if self.state == RUNNING:
                    self.service_seconds = now - self.started_monotonic
                elif self.queue_seconds is None:
                    self.queue_seconds = now - self.submitted_monotonic
            self.state = new_state

    def to_dict(self) -> dict:
        """JSON-safe status document (the ``GET /v1/jobs/<id>`` body).
        The result payload is only present once the job is ``DONE``."""
        doc = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "terminal": self.terminal,
            "submitted_unix": self.submitted_unix,
            "queue_seconds": self.queue_seconds,
            "service_seconds": self.service_seconds,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.state == DONE and self.result is not None:
            doc["result"] = self.result
        return doc


class JobTracker:
    """Thread-safe registry of every job ever submitted, with a
    bounded terminal-job history.

    A serving gateway runs indefinitely, so the tracker cannot retain
    every job forever: with ``max_terminal`` set (the JobManager
    passes ``config.serve_job_history``), the oldest *terminal* jobs
    beyond the cap are evicted — their state is folded into monotonic
    eviction counters first, so :meth:`counts` and :func:`len` keep
    the *accepted + shed == submitted* identity exact for the
    gateway's whole lifetime while memory stays bounded by the cap.
    Non-terminal jobs are never evicted.  A status poll for an
    evicted job id returns None (the gateway answers 404).
    """

    def __init__(self, max_terminal: int | None = None) -> None:
        self._jobs: Dict[str, Job] = {}
        self._terminal_order: Deque[str] = deque()
        self._evicted_counts: Dict[str, int] = {}
        self._evicted = 0
        self._max_terminal = max_terminal
        self._lock = threading.Lock()

    def add(self, job: Job) -> None:
        with self._lock:
            if job.job_id in self._jobs:
                raise ServeError(f"duplicate job id {job.job_id}")
            self._jobs[job.job_id] = job

    def note_terminal(self, job: Job) -> None:
        """Record that a tracked job reached a terminal state.

        Releases the job's request payload (it can never run again)
        and, when a history cap is set, evicts the oldest terminal
        jobs beyond it into the monotonic eviction counters.
        """
        job.payload = None
        if self._max_terminal is None:
            return
        with self._lock:
            if job.job_id not in self._jobs:
                return
            self._terminal_order.append(job.job_id)
            while len(self._terminal_order) > self._max_terminal:
                old_id = self._terminal_order.popleft()
                old = self._jobs.pop(old_id, None)
                if old is not None:
                    self._evicted_counts[old.state] = \
                        self._evicted_counts.get(old.state, 0) + 1
                    self._evicted += 1

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """The *retained* jobs (evicted ones live on only in
        :meth:`counts`)."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Job count per state — retained jobs by their current state
        plus every evicted job by its terminal state, so totals cover
        the gateway's whole lifetime."""
        with self._lock:
            counts = dict(self._evicted_counts)
            jobs = list(self._jobs.values())
        for job in jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def all_terminal(self) -> bool:
        return all(job.terminal for job in self.jobs())

    def __len__(self) -> int:
        """Every job ever tracked (retained + evicted) — the
        denominator of the accounting identity."""
        with self._lock:
            return len(self._jobs) + self._evicted


class JobManager:
    """Bounded admission queue + one dispatcher thread over a runner.

    Args:
        runner: ``runner(jobs) -> outcomes``: ``jobs`` is one
            dispatch (one tenant's jobs, in submission order) and
            ``outcomes`` holds one entry per job — its result dict
            (-> ``DONE``), or the exception that ended it: a
            :class:`~repro.errors.DeadlineExceededError` for a blown
            deadline (-> ``DEADLINE``), anything else (-> ``FAILED``).
            An exception raised by the runner itself ends every job
            of the dispatch the same way.  Called on the dispatcher
            thread, one dispatch at a time.
        config: supplies the ``serve_*`` knobs (queue capacity,
            per-tenant quota, default deadline, job history).
        obs: observability sinks; per-tenant counters
            (``serve_jobs_submitted`` / ``serve_jobs_shed`` /
            ``serve_jobs_terminal``), queue/service histograms, and
            the queue-depth gauge land in its registry.
        tracker: inject a shared tracker (defaults to a fresh one
            whose terminal-job history is bounded by
            ``config.serve_job_history``).
    """

    def __init__(self, runner: Callable[[List[Job]], Sequence],
                 config, obs: Observability | None = None,
                 tracker: JobTracker | None = None):
        self._runner = runner
        self.config = config
        self.obs = obs if obs is not None else OBS_OFF
        self.tracker = (tracker if tracker is not None
                        else JobTracker(
                            max_terminal=config.serve_job_history))
        self._queue: List[Job] = []
        self._cond = threading.Condition()
        self._inflight: Dict[str, int] = {}
        self._stopping = False
        self._thread: threading.Thread | None = None
        self._m_depth = self.obs.registry.gauge("serve_queue_depth")

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher thread."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._work, daemon=True, name="repro-serve-dispatch",
        )
        self._thread.start()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop admission, fail every still-queued job
        (``error="gateway shutdown"``), and join the dispatcher.  A
        dispatch already running finishes normally."""
        with self._cond:
            if self._stopping:
                return
            self._stopping = True
            drained = list(self._queue)
            self._queue.clear()
            self._m_depth.set(0)
            for job in drained:
                job.error = "gateway shutdown"
                job.transition(FAILED)
                self._finish_locked(job)
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # -- admission -----------------------------------------------------

    def submit(self, tenant: str, payload,
               deadline_seconds: float | None = None) -> Job:
        """Admit (or shed) one request; always returns a tracked job.

        The returned job is ``QUEUED`` when admitted and ``SHED``
        when the queue is full, the tenant is at its quota, or the
        manager is shutting down — the caller inspects ``job.state``
        (the gateway turns ``SHED`` into 503 + ``Retry-After``).

        Args:
            deadline_seconds: end-to-end budget from now; defaults to
                ``config.serve_default_deadline`` (0 disables).

        Raises:
            ServeError: ``deadline_seconds`` is negative or not finite
                (:func:`check_deadline`).
        """
        if deadline_seconds is None:
            deadline_seconds = self.config.serve_default_deadline
        else:
            check_deadline(deadline_seconds)
        absolute = (time.monotonic() + deadline_seconds
                    if deadline_seconds > 0 else None)
        job = Job(tenant, payload, deadline=absolute)
        self.tracker.add(job)
        self.obs.registry.counter(
            "serve_jobs_submitted", tenant=tenant
        ).inc()
        with self._cond:
            quota = self._inflight.get(tenant, 0)
            if (self._stopping
                    or len(self._queue) >= self.config.serve_queue_capacity
                    or quota >= self.config.serve_tenant_quota):
                job.error = ("gateway shutting down" if self._stopping
                             else "admission control: over capacity")
                job.transition(SHED)
                self.obs.registry.counter(
                    "serve_jobs_shed", tenant=tenant
                ).inc()
                self._record_terminal(job)
                return job
            self._inflight[tenant] = quota + 1
            self._queue.append(job)
            self._m_depth.set(len(self._queue))
            self._cond.notify()
        return job

    def inflight(self, tenant: str) -> int:
        """Queued + running jobs for one tenant (quota accounting)."""
        with self._cond:
            return self._inflight.get(tenant, 0)

    # -- dispatcher ----------------------------------------------------

    def _next_dispatch(self) -> List[Job] | None:
        """Pop the next dispatch, expiring stale jobs on the way.

        Takes the tenant of the oldest queued job and pops every
        queued job of that tenant; waits while the queue is empty and
        returns None only when the manager is stopping and the queue
        is drained.
        """
        with self._cond:
            while True:
                if not self._queue:
                    if self._stopping:
                        return None
                    self._cond.wait()
                    continue
                tenant = self._queue[0].tenant
                now = time.monotonic()
                batch = []
                kept = []
                for job in self._queue:
                    if job.tenant != tenant:
                        kept.append(job)
                    elif job.deadline is not None and now >= job.deadline:
                        job.error = "deadline expired in queue"
                        job.transition(DEADLINE)
                        self._finish_locked(job)
                    else:
                        batch.append(job)
                self._queue = kept
                self._m_depth.set(len(self._queue))
                if not batch:
                    continue
                for job in batch:
                    job.transition(RUNNING)
                self.obs.registry.histogram(
                    "serve_batch_jobs", buckets=SIZE_BUCKETS,
                    tenant=tenant,
                ).observe(len(batch))
                return batch

    def _work(self) -> None:
        while True:
            batch = self._next_dispatch()
            if batch is None:
                return
            try:
                outcomes = list(self._runner(batch))
                if len(outcomes) != len(batch):
                    raise ServeError(
                        f"runner returned {len(outcomes)} outcomes for "
                        f"{len(batch)} jobs"
                    )
            except Exception as exc:  # noqa: BLE001 - dispatcher must survive
                outcomes = [exc] * len(batch)
            with self._cond:
                for job, outcome in zip(batch, outcomes):
                    if isinstance(outcome, BaseException):
                        job.error = repr(outcome)
                        job.transition(
                            DEADLINE if isinstance(
                                outcome, DeadlineExceededError)
                            else FAILED)
                    else:
                        job.result = outcome
                        job.transition(DONE)
                    self._finish_locked(job)

    def _finish_locked(self, job: Job) -> None:
        """Quota release + terminal metrics; caller holds the cond."""
        remaining = self._inflight.get(job.tenant, 0) - 1
        if remaining > 0:
            self._inflight[job.tenant] = remaining
        else:
            self._inflight.pop(job.tenant, None)
        self._record_terminal(job)

    def _record_terminal(self, job: Job) -> None:
        self.tracker.note_terminal(job)
        registry = self.obs.registry
        registry.counter("serve_jobs_terminal", tenant=job.tenant,
                         state=job.state).inc()
        if job.queue_seconds is not None:
            registry.histogram("serve_queue_seconds",
                               tenant=job.tenant
                               ).observe(job.queue_seconds)
        if job.service_seconds is not None:
            registry.histogram("serve_service_seconds",
                               tenant=job.tenant
                               ).observe(job.service_seconds)
