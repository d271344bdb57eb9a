"""The elastic coordinator: membership + online re-planning over TCP.

:class:`ElasticCoordinator` extends the fixed-fleet
:class:`~repro.net.coordinator.Coordinator` with three abilities
(docs/ELASTIC.md):

* **Admit** — :meth:`admit_join` appends a cluster slot for a worker
  that dialed the :class:`~repro.cluster.membership.MembershipListener`
  mid-stream, handshakes it, and starts its heartbeat probe.  Joining
  never touches existing assignments: the new member idles until a
  re-plan routes stages onto it.
* **Re-plan** — :meth:`apply_plan` swaps the live plan under the
  coordinator lock and rebuilds the handshake specs.  Because the
  spec embeds per-stage thread counts, the spec *digest* changes,
  and the PR 9 digest pinning makes every worker rebuild its pinned
  session on the next dial — re-handshaking sessions is literally
  the plan swap.  ``pick_worker`` consults the plan per item, so
  in-flight streams migrate to the new assignment at item
  granularity with no barrier.
* **Drain** — :meth:`drain_member` re-plans with the member excluded,
  marks it draining (no failover traffic, no recovery loop), then
  quiesces: each of its task connections is closed only once its
  round-trip lock is held, so no item is ever cut mid-flight.  Items
  that raced the drain surface as
  :class:`~repro.errors.TransientStageError` and replay on the new
  assignee — stateless per-item obfuscation makes the replay
  bit-identical, so draining produces zero dead letters.

Server ids are append-only: a departed member keeps its (empty)
cluster slot, which keeps all plan indices valid and lets the
generation guard in ``report_failure`` ignore stale failure reports
for members that epoch N+1 already replaced.
"""

from __future__ import annotations

import time

from ..errors import ClusterMembershipError
from ..net.coordinator import Coordinator, WorkerHandle
from ..net.reconnect import CircuitBreaker
from ..net.wire import ROLE_DATA, ROLE_MODEL, build_worker_spec
from ..planner.allocation import allocate_even, allocate_load_balanced
from ..planner.plan import (
    ClusterSpec,
    Plan,
    ServerSpec,
    StageAssignment,
)
from .membership import MembershipListener
from .state import ClusterState


class ElasticCoordinator(Coordinator):
    """A coordinator whose fleet can grow, shrink, and re-plan live.

    Args:
        membership: start a :class:`MembershipListener` on
            :meth:`connect` so workers can join over the wire
            (``--join HOST:PORT``).  Gateway tenants set this False —
            their joins arrive through the registry API instead, and
            one listener per tenant would be waste.
        membership_host / membership_port: listener bind address
            (port 0 = ephemeral).
        Everything else is the base coordinator's signature.
    """

    def __init__(self, *args, membership: bool = True,
                 membership_host: str = "127.0.0.1",
                 membership_port: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.state = ClusterState()
        for server, handle in zip(self.plan.cluster.servers,
                                  self.handles):
            self.state.apply_join(server.server_id, server.role,
                                  handle.address, server.cores)
        self._membership_enabled = membership
        self._membership_host = membership_host
        self._membership_port = membership_port
        self._membership: MembershipListener | None = None
        self.plans_applied = 0
        self._m_joins = self.obs.registry.counter("cluster_joins")
        self._m_leaves = self.obs.registry.counter("cluster_leaves")
        self._m_plans = self.obs.registry.counter(
            "cluster_plans_applied"
        )
        self._m_members = self.obs.registry.gauge("cluster_members")
        self._m_epoch = self.obs.registry.gauge("cluster_epoch")
        self._refresh_membership_gauges()

    def _refresh_membership_gauges(self) -> None:
        snapshot = self.state.snapshot()
        self._m_members.set(len(snapshot.present()))
        self._m_epoch.set(snapshot.epoch)

    # -- membership ----------------------------------------------------

    @property
    def membership_address(self) -> tuple[str, int]:
        """The join/leave listener's address (starts it if needed)."""
        if self._membership is None:
            if not self._membership_enabled:
                raise ClusterMembershipError(
                    "this coordinator does not accept wire joins "
                    "(membership=False)"
                )
            self._membership = MembershipListener(
                self, self._membership_host, self._membership_port
            )
            self._membership.start()
        return self._membership.address

    def connect(self) -> None:
        super().connect()
        if self._membership_enabled and self._membership is None:
            self.membership_address  # noqa: B018 - starts the listener

    def admit_join(self, address: tuple, role: str,
                   cores: int = 2) -> tuple[WorkerHandle, int]:
        """Admit one worker into the running fleet.

        Appends a :class:`~repro.planner.plan.ServerSpec` slot (ids
        are append-only, so every existing assignment stays valid),
        records the membership epoch, and — when the fleet is already
        connected — handshakes the member and starts its heartbeat
        probe.  Re-joining the same ``(address, role)`` is idempotent
        and returns the existing slot.

        Returns ``(handle, epoch)``.
        """
        if role not in (ROLE_MODEL, ROLE_DATA):
            raise ClusterMembershipError(
                f"unknown worker role {role!r}"
            )
        if cores < 1:
            raise ClusterMembershipError(
                f"a member needs >= 1 core, got {cores}"
            )
        address = (str(address[0]), int(address[1]))
        with self._lock:
            for handle in self.handles:
                if handle.address == address \
                        and handle.role == role \
                        and not handle.draining:
                    return handle, self.state.epoch
            old = self.plan
            server_id = len(old.cluster.servers)
            cluster = ClusterSpec(
                old.cluster.servers
                + (ServerSpec(server_id, int(cores), role),),
                old.cluster.hyperthreading,
            )
            # Same stages, same assignments: the new member idles
            # until a re-plan routes work onto it.
            self.plan = Plan(cluster, old.stages, old.assignments,
                             old.use_tensor_partitioning)
            handle = WorkerHandle(server_id, role, address)
            handle.breaker = CircuitBreaker(
                threshold=self.config.net_breaker_threshold,
                cooldown=self.config.net_breaker_cooldown,
            )
            self.handles.append(handle)
            connected = self._connected
        epoch = self.state.apply_join(server_id, role, address, cores)
        if connected:
            self._attach(handle)
            self._start_probe(handle)
        self._m_joins.inc()
        self._refresh_membership_gauges()
        self.obs.tracer.event("member-join", server=server_id,
                              role=role, epoch=epoch)
        return handle, epoch

    # -- re-planning ---------------------------------------------------

    def allocation_for(self, times=None,
                       exclude: frozenset = frozenset()) -> Plan:
        """A fresh full-cluster plan over the *present* members.

        Departed members (and any ids in ``exclude``) are masked out
        by allocating over a temporarily renumbered cluster — the
        planner requires contiguous ids — and remapping the resulting
        assignments back onto real server ids, so the returned plan
        validates against the full (append-only) cluster with the
        masked members holding zero assignments.

        Args:
            times: measured per-stage service times for
                :func:`~repro.planner.allocation.allocate_load_balanced`;
                ``None`` falls back to the even baseline.
        """
        with self._lock:
            plan = self.plan
        cluster = plan.cluster
        present = [
            server for server in cluster.servers
            if server.server_id not in exclude
            and not self.state.has_left(server.server_id)
        ]
        for role in (ROLE_MODEL, ROLE_DATA):
            if not any(server.role == role for server in present):
                raise ClusterMembershipError(
                    f"cannot plan a fleet with no {role} member"
                )
        temp_cluster = ClusterSpec(
            tuple(ServerSpec(index, server.cores, server.role)
                  for index, server in enumerate(present)),
            cluster.hyperthreading,
        )
        if times is None:
            result = allocate_even(plan.stages, temp_cluster,
                                   plan.use_tensor_partitioning)
        else:
            result = allocate_load_balanced(
                plan.stages, times, temp_cluster,
                method="water_filling",
                use_tensor_partitioning=plan.use_tensor_partitioning,
            )
        id_map = {index: server.server_id
                  for index, server in enumerate(present)}
        assignments = tuple(
            StageAssignment(a.stage_index, id_map[a.server_id],
                            a.threads)
            for a in result.plan.assignments
        )
        return Plan(cluster, plan.stages, assignments,
                    plan.use_tensor_partitioning)

    def apply_plan(self, new_plan: Plan) -> None:
        """Swap the live plan and rebuild the handshake specs.

        The spec rebuild is what re-handshakes sessions: per-stage
        thread counts live in the spec, so the digest changes, the
        next ``run_stream`` retires every stage connection dialed
        under the old spec (:meth:`Coordinator.executors`), and each
        worker rebuilds its pinned tenant session on the re-dial
        (same keypair, changed spec — the worker's digest pinning).
        """
        if len(new_plan.stages) != len(self.plan.stages):
            raise ClusterMembershipError(
                "a re-plan cannot change the stage geometry "
                f"({len(new_plan.stages)} != {len(self.plan.stages)})"
            )
        with self._lock:
            self.plan = new_plan
            self.plans_applied += 1
        self._specs = {
            role: build_worker_spec(self.model_provider,
                                    self.data_provider, new_plan,
                                    role, tenant=self.tenant)
            for role in (ROLE_MODEL, ROLE_DATA)
        }
        self._m_plans.inc()
        self.obs.tracer.event("plan-applied",
                              count=self.plans_applied)

    # -- drain-and-migrate ---------------------------------------------

    def drain_member(self, server_id: int, times=None,
                     quiesce_timeout: float = 5.0) -> int:
        """Move every stage off one member, then quiesce it.

        Ordering is the whole trick: (1) apply a plan that excludes
        the member, so new items route elsewhere; (2) mark it
        draining, so failover never picks it and its failures spawn
        no recovery; (3) close each task connection only after
        acquiring its round-trip lock, so an in-flight item finishes
        its round trip rather than being cut mid-frame.  Anything
        that still races the close replays through the transient
        retry path onto the new assignee — zero dead letters.

        Returns the new membership epoch.
        """
        with self._lock:
            if not 0 <= server_id < len(self.handles):
                raise ClusterMembershipError(
                    f"no member with server id {server_id}"
                )
            handle = self.handles[server_id]
        if self.state.has_left(server_id):
            raise ClusterMembershipError(
                f"member {server_id} already left the fleet"
            )
        new_plan = self.allocation_for(
            times=times, exclude=frozenset((server_id,))
        )
        self.apply_plan(new_plan)
        handle.draining = True
        epoch = self.state.apply_leave(server_id)
        self._quiesce(handle, quiesce_timeout)
        with self._lock:
            handle.alive = False
        self._m_leaves.inc()
        self._refresh_membership_gauges()
        self.obs.tracer.event("member-drain", server=server_id,
                              role=handle.role, epoch=epoch)
        return epoch

    def _quiesce(self, handle: WorkerHandle,
                 timeout: float) -> None:
        """Close a draining member's connections between round trips."""
        deadline = time.monotonic() + timeout
        for connection in handle.drain_connections():
            remaining = max(0.0, deadline - time.monotonic())
            acquired = connection._rpc_lock.acquire(timeout=remaining)
            try:
                connection.close()
            finally:
                if acquired:
                    connection._rpc_lock.release()
        control = handle.control
        if control is not None:
            handle.control = None
            control.close()

    # -- teardown ------------------------------------------------------

    def close(self, shutdown_workers: bool = False) -> None:
        if self._membership is not None:
            self._membership.stop()
            self._membership = None
        super().close(shutdown_workers=shutdown_workers)
