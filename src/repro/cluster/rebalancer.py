"""Telemetry-driven online re-planning (docs/ELASTIC.md).

The :class:`Rebalancer` closes the loop the offline planner leaves
open: instead of allocating once from profiled primitive times, it
watches the metrics the stream runtime already emits —
``stream_queue_depth`` gauges for backlog and
``stream_stage_service_seconds`` histograms for *measured* per-stage
service times — and, when a stage's backlog crosses the configured
threshold, computes a fresh stage→worker assignment via
:func:`~repro.planner.allocation.allocate_load_balanced` seeded with
those measured means and applies it through
:meth:`~repro.cluster.elastic.ElasticCoordinator.apply_plan`.

Triggering is **hysteretic**: once a re-plan fires, the trigger
disarms until backlog falls back below ``cluster_backlog_low``, and a
``cluster_rebalance_cooldown`` separates consecutive re-plans — a
noisy gauge cannot thrash plans.  :meth:`step` is a synchronous
single control decision (deterministic, what the tests drive);
:meth:`start` wraps it in a background thread for servers.
"""

from __future__ import annotations

import threading
import time

from ..errors import (
    ClusterMembershipError,
    InfeasibleAllocationError,
    PlannerError,
)

#: Period in seconds of the background control loop (:meth:`Rebalancer
#: .start`).
REBALANCE_INTERVAL = 1.0


class Rebalancer:
    """One control loop bound to one elastic coordinator.

    Args:
        coordinator: the
            :class:`~repro.cluster.elastic.ElasticCoordinator` whose
            plan this loop owns.
        watermark: ``"current"`` reads each queue gauge's live value
            (long-running servers, where depth decays as load does);
            ``"high"`` reads the high-water mark (bursty batch
            benches, where the backlog has drained by the time the
            control loop looks).
    """

    def __init__(self, coordinator, watermark: str = "current"):
        if watermark not in ("current", "high"):
            raise ClusterMembershipError(
                f"watermark must be 'current' or 'high', "
                f"got {watermark!r}"
            )
        self.coordinator = coordinator
        self.config = coordinator.config
        self.watermark = watermark
        self.armed = True
        self.rebalances = 0
        self._last_applied: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._m_rebalances = coordinator.obs.registry.counter(
            "cluster_rebalances"
        )
        self._m_skipped = coordinator.obs.registry.counter(
            "cluster_rebalances_skipped"
        )

    # -- telemetry reads -----------------------------------------------

    def backlog_by_stage(self) -> dict[int, float]:
        """Peak queue depth per stage from the live gauges.

        Reads only the *aggregate* (stage-labeled) gauges; the
        worker-labeled twins exist to attribute backlog, not to
        double-count it.
        """
        depths: dict[int, float] = {}
        registry = self.coordinator.obs.registry
        for labels, gauge in registry.find("gauge",
                                           "stream_queue_depth"):
            stage = labels.get("stage")
            if stage is None or "worker" in labels:
                continue
            value = (gauge.high_water if self.watermark == "high"
                     else gauge.value)
            index = int(stage)
            depths[index] = max(depths.get(index, 0.0), value)
        return depths

    def measured_times(self) -> dict[int, float]:
        """Mean measured service seconds per stage, from histograms
        with at least ``cluster_min_service_samples`` observations."""
        times: dict[int, float] = {}
        registry = self.coordinator.obs.registry
        minimum = self.config.cluster_min_service_samples
        for labels, hist in registry.find(
                "histogram", "stream_stage_service_seconds"):
            stage = labels.get("stage")
            if stage is None or "worker" in labels:
                continue
            if hist.count >= minimum:
                times[int(stage)] = hist.sum / hist.count
        return times

    # -- the control decision ------------------------------------------

    def step(self, now: float | None = None) -> bool:
        """One synchronous control decision.

        Returns True when a new plan was computed *and* applied;
        False when the trigger is disarmed, backlog is below the
        threshold, the cooldown holds, telemetry is still too thin,
        or the fresh allocation equals the live one.
        """
        now = time.monotonic() if now is None else now
        depths = self.backlog_by_stage()
        peak = max(depths.values(), default=0.0)
        if not self.armed:
            if peak <= self.config.cluster_backlog_low:
                self.armed = True
            return False
        if peak < self.config.cluster_backlog_high:
            return False
        if self._last_applied is not None and \
                now - self._last_applied < \
                self.config.cluster_rebalance_cooldown:
            return False
        plan = self.coordinator.plan
        times = self.measured_times()
        if len(times) < len(plan.stages):
            self._m_skipped.inc()
            return False  # not every stage has trustworthy telemetry
        vector = [max(times[stage.index], 1e-9)
                  for stage in plan.stages]
        try:
            new_plan = self.coordinator.allocation_for(times=vector)
        except (PlannerError, InfeasibleAllocationError,
                ClusterMembershipError):
            self._m_skipped.inc()
            return False
        if new_plan.assignments == plan.assignments:
            self._m_skipped.inc()
            return False
        self.coordinator.apply_plan(new_plan)
        self.armed = False
        self._last_applied = now
        self.rebalances += 1
        self._m_rebalances.inc()
        self.coordinator.obs.tracer.event(
            "rebalance", peak_backlog=peak,
            rebalances=self.rebalances,
        )
        return True

    # -- background loop -----------------------------------------------

    def start(self) -> None:
        """Run :meth:`step` every :data:`REBALANCE_INTERVAL` seconds on
        a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-cluster-rebalancer",
            daemon=True,
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(REBALANCE_INTERVAL):
            self.step()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
