"""Worker supervision: heartbeats, restarts, and orderly shutdown.

The :class:`Supervisor` owns the pipeline's stage workers.  Its
monitor thread sweeps worker liveness each time a worker exits (every
worker signals its exit — completion or crash — on its own thread, and
fatal shutdown raises the same signal), with ``poll_interval`` kept
only as a fallback tick, so a stream ends when its last worker does:

* a worker that finished normally (inbound drained) is left alone;
* a worker whose thread died (a :class:`~repro.errors.WorkerCrashError`
  from the executor, a forwarding failure, any bug) is **restarted** —
  a fresh :class:`StageWorker` is bound to the same executor and
  channels, and the dead incarnation's in-flight item is re-injected
  (at the head of its inbound channel if it was still unprocessed, at
  the head of its outbound channel if it was processed but not yet
  forwarded) — up to a per-stage ``restart_budget``;
* when the budget is exhausted the failure is **fatal**: the
  supervisor records it, closes every channel (waking all blocked
  producers and consumers), waits for the remaining threads to exit,
  and finalizes every worker so no thread is left blocked on a channel
  and no executor pool is leaked.

Heartbeat ages are exposed via
:meth:`Supervisor.heartbeat_ages` / :meth:`Supervisor.stalled_stages`
for observability.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import StageFailedError
from ..observability import OBS_OFF, Observability
from .channel import Channel
from .retry import DeadLetter
from .worker import StageWorker


@dataclass
class _StageSlot:
    """Current incarnation plus totals from dead incarnations."""

    worker: StageWorker
    restarts: int = 0
    items_processed: int = 0
    busy_seconds: float = 0.0
    blocked_seconds: float = 0.0
    crash_log: List[str] = field(default_factory=list)

    def total_items(self) -> int:
        return self.items_processed + self.worker.items_processed

    def total_busy(self) -> float:
        return self.busy_seconds + self.worker.busy_seconds

    def total_blocked(self) -> float:
        return self.blocked_seconds + self.worker.blocked_seconds

    def absorb_dead(self, dead: StageWorker) -> None:
        self.items_processed += dead.items_processed
        self.busy_seconds += dead.busy_seconds
        self.blocked_seconds += dead.blocked_seconds


class Supervisor:
    """Monitors stage workers, restarting crashed ones within budget.

    Args:
        workers: one started-or-startable worker per stage, in
            pipeline order.
        channels: every channel in the pipeline (source .. sink);
            closed wholesale on fatal shutdown.
        restart_budget: restarts allowed per stage before the failure
            is fatal.
        poll_interval: fallback sweep period in seconds; the monitor
            normally wakes on each worker's exit signal instead.
        stall_threshold: heartbeat age in seconds beyond which a stage
            is reported by :meth:`stalled_stages` (observability only;
            a stalled-but-alive worker is usually just backpressured).
        obs: observability sinks; each restart increments a per-stage
            ``stream_restarts`` counter and records a ``restart``
            event span on the in-flight item's trace.
    """

    def __init__(
        self,
        workers: Sequence[StageWorker],
        channels: Sequence[Channel],
        restart_budget: int = 2,
        poll_interval: float = 0.02,
        stall_threshold: float = 30.0,
        obs: Observability | None = None,
    ):
        if restart_budget < 0:
            raise ValueError("restart_budget must be non-negative")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.restart_budget = restart_budget
        self.poll_interval = poll_interval
        self.stall_threshold = stall_threshold
        self.fatal_error: StageFailedError | None = None
        self.obs = obs if obs is not None else OBS_OFF
        self._slots = [_StageSlot(worker=w) for w in workers]
        self._channels = list(channels)
        self._stop = threading.Event()
        #: Set by every worker exit and by fatal shutdown; the monitor
        #: sweeps each time it fires.
        self._wake = threading.Event()
        self._started = False
        self._thread = threading.Thread(
            target=self._monitor, name="repro-stream-supervisor",
            daemon=True
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Mark workers supervised, start them, start monitoring."""
        for slot in self._slots:
            slot.worker.supervised = True
            slot.worker.on_exit = self._wake.set
            slot.worker.start()
        self._started = True
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        """Wait for the monitor to finish (all stages done or fatal
        shutdown complete)."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise StageFailedError(
                "supervisor did not finish within the join timeout"
            )

    def shutdown(self) -> None:
        """Force drain-and-shutdown (e.g. the sink drain timed out).

        Does not synthesize a fatal error: the caller knows why it is
        shutting down and reports that itself."""
        self._stop.set()
        self._fatal_shutdown()

    # -- monitoring ----------------------------------------------------

    def _monitor(self) -> None:
        while not self._stop.is_set():
            # Clear before sweeping: an exit that lands mid-sweep sets
            # the signal again and buys one more sweep.
            self._wake.clear()
            if self._sweep():
                break
            self._wake.wait(self.poll_interval)

    def _sweep(self) -> bool:
        """One liveness pass; True when every stage has wound down."""
        all_done = True
        for index, slot in enumerate(self._slots):
            worker = slot.worker
            if worker.is_alive():
                all_done = False
                continue
            if worker.completed:
                continue
            if not worker.crashed:
                # Not started or exited without marking; treat as done.
                continue
            slot.crash_log.append(repr(worker.error))
            if (self.fatal_error is None
                    and not self._stop.is_set()
                    and slot.restarts < self.restart_budget):
                self._restart(index, slot)
                all_done = False
            else:
                if self.fatal_error is None \
                        and not self._stop.is_set():
                    self.fatal_error = StageFailedError(
                        f"stage {worker.name} exhausted its restart "
                        f"budget ({self.restart_budget}); last error: "
                        f"{worker.error!r}"
                    )
                    self.fatal_error.__cause__ = worker.error
                self._fatal_shutdown()
                return True
        return all_done

    def _restart(self, index: int, slot: _StageSlot) -> None:
        dead = slot.worker
        slot.absorb_dead(dead)
        replacement = dead.respawn()
        inflight = dead.inflight
        if inflight is not None:
            # Unprocessed items rerun the stage; a processed item that
            # died in the forward hand-off skips straight downstream.
            if dead.inflight_processed and dead.outbound is not None:
                dead.outbound.put_front(inflight)
            else:
                dead.inbound.put_front(inflight)
        slot.worker = replacement
        slot.restarts += 1
        self.obs.registry.counter("stream_restarts",
                                  stage=str(index)).inc()
        self.obs.tracer.event(
            "restart",
            trace_id=getattr(inflight, "trace_id", None),
            parent_id=getattr(inflight, "trace_parent", None),
            stage=index,
            restart=slot.restarts,
            reinjected=inflight is not None,
            error=repr(dead.error),
        )
        replacement.start()

    def _fatal_shutdown(self) -> None:
        """Close every channel, wait for threads, finalize workers."""
        self._wake.set()
        for channel in self._channels:
            channel.close()
        deadline = time.monotonic() + 10.0
        for slot in self._slots:
            remaining = max(0.0, deadline - time.monotonic())
            slot.worker.join_quietly(timeout=remaining)
        for slot in self._slots:
            slot.worker.finalize()

    # -- aggregation ---------------------------------------------------

    @property
    def stage_restarts(self) -> List[int]:
        return [slot.restarts for slot in self._slots]

    @property
    def total_restarts(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    def stage_items(self) -> List[int]:
        return [slot.total_items() for slot in self._slots]

    def stage_busy_seconds(self) -> List[float]:
        return [slot.total_busy() for slot in self._slots]

    def stage_blocked_seconds(self) -> List[float]:
        return [slot.total_blocked() for slot in self._slots]

    def stage_retries(self) -> List[int]:
        return [slot.worker.ledger.retries for slot in self._slots]

    def stage_backoff_events(self) -> List[int]:
        return [slot.worker.ledger.backoff_events
                for slot in self._slots]

    def dead_letters(self) -> List[DeadLetter]:
        letters: List[DeadLetter] = []
        for slot in self._slots:
            letters.extend(slot.worker.ledger.dead_letters)
        return letters

    def heartbeat_ages(self) -> List[float]:
        return [slot.worker.heartbeat_age() for slot in self._slots]

    def stalled_stages(self) -> List[int]:
        """Indices of live stages whose heartbeat is older than the
        stall threshold (blocked or wedged — informational)."""
        return [
            index for index, slot in enumerate(self._slots)
            if slot.worker.is_alive()
            and slot.worker.heartbeat_age() > self.stall_threshold
        ]

    def live_workers(self) -> List[str]:
        return [slot.worker.name for slot in self._slots
                if slot.worker.is_alive()]
