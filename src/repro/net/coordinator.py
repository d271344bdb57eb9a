"""The cluster coordinator: planner assignments onto live TCP workers.

A :class:`Coordinator` takes the same (model provider, data provider,
plan) triple as the in-process :class:`~repro.stream.pipeline.Pipeline`
plus one worker address per cluster server, handshakes each worker into
its server's role, and then runs streams through **the existing
pipeline machinery**: `run_stream` admission, `StageWorker` retry
loops, the supervisor, and the dead-letter path are reused verbatim —
only the per-stage executors are swapped for
:class:`RemoteStageExecutor` proxies that ship each item over a
:class:`RemoteChannel` and await the result.  The coordinator keeps
one proxy per stage, and each proxy's handshaken task connection,
across ``run_stream`` calls: a one-request stream pays for its crypto,
not for eight dials and hellos.  Only a failure report (dead worker),
a spec change (elastic re-plan), a drain or :meth:`Coordinator.close`
retires a connection.

Failure handling composes with the existing retry policy instead of
duplicating it: any transport failure (broken frame, closed socket,
timed-out round trip, no live worker) surfaces as
:class:`~repro.errors.TransientStageError`, so the stage's retry loop
backs off and re-runs the item — by then against a failover worker of
the same role, because the first failure marked the original worker
dead.  One heartbeat probe thread *per worker* independently detects
silent worker death (missed
:attr:`~repro.config.RuntimeConfig.net_heartbeat_timeout`); per-worker
probes keep detection latency independent of fleet size — one stalled
worker cannot delay its neighbours' liveness checks.  A failure
force-closes that worker's task connections, which wakes any stage
thread blocked on it into the same transient-retry path
(drain-then-reassign: those in-flight items re-run against a failover
worker).

Transient partitions *heal without consuming the restart budget*: a
failure report spawns a background recovery loop that re-dials the
same address with exponential backoff
(:attr:`~repro.config.RuntimeConfig.net_reconnect_attempts` tries,
jitter drawn from a seeded RNG so schedules replay), gated by a
per-worker :class:`~repro.net.reconnect.CircuitBreaker`.  Only when
reconnection is exhausted does the respawn hook run — and only within
``worker_restart_budget``.  Exhausted request retries dead-letter the
request; the stream keeps serving everything else.

When the config's ``chaos_*`` knobs are set, every coordinator-side
connection is wrapped by :class:`~repro.net.chaos.ChaosConnection`, so
the reconnect/retry machinery above is exercised under deterministic
injected faults.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, List, Sequence

import numpy as np

from ..errors import (
    HandshakeError,
    TransientStageError,
    TransportError,
)
from ..nn.layers import LayerKind
from ..observability import OBS_OFF, Observability
from ..planner.plan import Plan
from ..protocol.roles import DataProvider, ModelProvider
from ..stream.pipeline import Pipeline, StreamStats
from ..stream.retry import RetryPolicy
from .chaos import ChaosInjector, ChaosPlan
from .reconnect import CircuitBreaker
from .transport import (
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HEARTBEAT_ACK,
    KIND_HELLO,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_WELCOME,
    Connection,
    Envelope,
    dial,
)
from .wire import (
    ROLE_DATA,
    ROLE_MODEL,
    apply_result,
    build_worker_spec,
    raise_remote_error,
    task_envelope,
)

#: Signature of the optional worker-respawn hook:
#: ``respawn(server_id, role) -> (host, port)`` of a fresh worker.
RespawnFn = Callable[[int, str], tuple[str, int]]

#: Seed salts separating the coordinator's deterministic RNG streams
#: (reconnect backoff jitter, default retry-policy jitter) from the
#: crypto streams derived from the same master seed.
_RECONNECT_SALT = 0xBAC0FF
_RETRY_JITTER_SALT = 0x9177E4


class WorkerHandle:
    """One cluster-server slot bound to a live (or dead) worker."""

    def __init__(self, server_id: int, role: str,
                 address: tuple[str, int]):
        self.server_id = server_id
        self.role = role
        self.address = address
        self.alive = False
        #: Set while an elastic coordinator drains this member out of
        #: the fleet (docs/ELASTIC.md): the slot takes no failover
        #: traffic and its failures spawn no recovery loop.
        self.draining = False
        self.generation = 0
        self.restarts = 0
        self.reconnects = 0
        self.heartbeats_ok = 0
        self.breaker: CircuitBreaker | None = None
        self.control: Connection | None = None
        self._task_conns: List[Connection] = []
        self._lock = threading.Lock()

    def register(self, connection: Connection) -> None:
        with self._lock:
            self._task_conns.append(connection)

    def unregister(self, connection: Connection) -> None:
        """Forget one task connection (a no-op when a failure report
        or a drain already took it)."""
        with self._lock:
            if connection in self._task_conns:
                self._task_conns.remove(connection)

    def task_connections(self) -> List[Connection]:
        """The task connections this slot currently holds."""
        with self._lock:
            return list(self._task_conns)

    def drain_connections(self) -> List[Connection]:
        with self._lock:
            connections = list(self._task_conns)
            self._task_conns.clear()
        return connections

    def describe(self) -> str:
        state = "up" if self.alive else "down"
        return (f"server {self.server_id} ({self.role}) @ "
                f"{self.address[0]}:{self.address[1]} [{state}, "
                f"gen {self.generation}, {self.restarts} restart(s), "
                f"{self.reconnects} reconnect(s)]")


class RemoteChannel:
    """The wire conduit for one (stage, worker-generation) pair.

    The network twin of the in-process bounded channel: ``submit``
    plays put-then-get as one strict round trip on a dedicated task
    connection, so the thread pipeline's stage workers drive remote
    stages through the same blocking call pattern they use locally.
    Dialed lazily on first use and then kept open across streams; a
    connection found closed is re-dialed on the next submit, and the
    executor replaces the whole channel when the worker's generation
    moves.
    """

    def __init__(self, coordinator: "Coordinator",
                 handle: WorkerHandle, stage_index: int,
                 generation: int):
        self._coordinator = coordinator
        self._handle = handle
        self._stage_index = stage_index
        self.generation = generation
        self._connection: Connection | None = None
        self._lock = threading.Lock()

    def _ensure_connection(self) -> Connection:
        with self._lock:
            if self._connection is not None:
                if not self._connection.closed:
                    return self._connection
                self._handle.unregister(self._connection)
            self._connection = self._coordinator._open_task_connection(
                self._handle
            )
            self._handle.register(self._connection)
            return self._connection

    def submit(self, item, timeout: float) -> object:
        """One stage-task round trip; returns the processed item."""
        connection = self._ensure_connection()
        reply = connection.request(
            task_envelope(item, self._stage_index), timeout=timeout
        )
        if reply.kind == KIND_ERROR:
            raise_remote_error(reply)
        if reply.kind != KIND_RESULT:
            raise TransportError(
                f"expected a result envelope, got {reply.kind}"
            )
        return apply_result(
            reply, item, self._coordinator.data_provider.public_key
        )

    def close(self) -> None:
        with self._lock:
            connection, self._connection = self._connection, None
        if connection is not None:
            self._handle.unregister(connection)
            connection.close()


class RemoteStageExecutor:
    """Stage-executor proxy: ships items to a worker of the right role.

    Drop-in for the in-process executors (same ``process(item)``
    surface), handed to ``Pipeline(executors=...)`` so both runtimes
    share one code path.  Worker selection prefers the plan's assigned
    server and fails over to any live worker of the same role; with
    none live it raises :class:`~repro.errors.TransientStageError` so
    the retry policy keeps the request alive across a worker respawn.

    The coordinator owns these proxies and their connections across
    streams, so there is deliberately no ``shutdown()``: a stream
    ending leaves the connections open for the next one, and only
    :meth:`close` (coordinator close, or a spec change retiring the
    set) releases them.
    """

    def __init__(self, coordinator: "Coordinator", stage_index: int,
                 role: str):
        self.coordinator = coordinator
        self.stage_index = stage_index
        self.role = role
        #: One channel per server id, for that server's latest seen
        #: generation: a generation bump replaces (and closes) it.
        self._channels: dict[int, RemoteChannel] = {}
        self._lock = threading.Lock()
        self._m_roundtrip = coordinator.obs.registry.histogram(
            "net_stage_roundtrip_seconds", stage=str(stage_index)
        )
        self._m_reassigned = coordinator.obs.registry.counter(
            "net_inflight_reassigned", stage=str(stage_index)
        )
        # Per-worker twins of the roundtrip histogram, so backlog and
        # latency attribute to a specific member (the unlabeled-by-
        # worker aggregate above stays for dashboard compatibility).
        self._worker_roundtrips: dict[str, object] = {}
        #: Server id of the worker that served the most recent item;
        #: the stream's :class:`~repro.stream.worker.StageWorker`
        #: mirrors it onto a worker-labeled queue-depth gauge.
        self.worker_label: str | None = None

    def _roundtrip_for(self, label: str):
        hist = self._worker_roundtrips.get(label)
        if hist is None:
            hist = self.coordinator.obs.registry.histogram(
                "net_stage_roundtrip_seconds",
                stage=str(self.stage_index), worker=label,
            )
            self._worker_roundtrips[label] = hist
        return hist

    def _channel_for(self, handle: WorkerHandle,
                     generation: int) -> RemoteChannel:
        stale = None
        with self._lock:
            channel = self._channels.get(handle.server_id)
            if channel is None or channel.generation != generation:
                stale = channel
                channel = RemoteChannel(self.coordinator, handle,
                                        self.stage_index, generation)
                self._channels[handle.server_id] = channel
        if stale is not None:
            stale.close()
        return channel

    def process(self, item):
        handle = self.coordinator.pick_worker(self.role,
                                              self.stage_index)
        generation = handle.generation
        label = str(handle.server_id)
        self.worker_label = label
        channel = self._channel_for(handle, generation)
        start = time.perf_counter()
        try:
            item = channel.submit(
                item, self.coordinator.config.net_request_timeout
            )
        except TransportError as exc:
            self.coordinator.report_failure(handle, generation)
            self._m_reassigned.inc()
            raise TransientStageError(
                f"stage {self.stage_index} round trip to "
                f"{handle.describe()} failed: {exc}"
            ) from exc
        elapsed = time.perf_counter() - start
        self._m_roundtrip.observe(elapsed)
        self._roundtrip_for(label).observe(elapsed)
        return item

    def close(self) -> None:
        """Release every task connection this stage holds."""
        with self._lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for channel in channels:
            channel.close()


class Coordinator:
    """Maps planner stage assignments onto registered remote workers.

    Args:
        model_provider / data_provider / plan: exactly the in-process
            pipeline's triple; the plan's cluster defines one server
            slot (with a role) per worker address.
        workers: one ``(host, port)`` per cluster server, in server-id
            order.
        respawn: optional hook called (from the failure path) with
            ``(server_id, role)`` to start a replacement worker;
            returns its address.  At most ``worker_restart_budget``
            respawns per server slot.
        worker_restart_budget: respawns allowed per server slot.
        retry_policy / request_deadline / channel_capacity /
            restart_budget / sink_timeout: forwarded to the underlying
            :class:`~repro.stream.pipeline.Pipeline` untouched.
        obs: observability sinks (defaults from the providers, like the
            in-process pipeline).
    """

    def __init__(
        self,
        model_provider: ModelProvider,
        data_provider: DataProvider,
        plan: Plan,
        workers: Sequence[tuple[str, int]],
        respawn: RespawnFn | None = None,
        worker_restart_budget: int = 0,
        retry_policy: RetryPolicy | None = None,
        request_deadline: float | None = None,
        channel_capacity: int = 8,
        restart_budget: int = 2,
        sink_timeout: float = 300.0,
        obs: Observability | None = None,
        tenant: str = "default",
    ):
        servers = plan.cluster.servers
        if len(workers) != len(servers):
            raise HandshakeError(
                f"plan has {len(servers)} servers but {len(workers)} "
                "worker addresses were given"
            )
        self.model_provider = model_provider
        self.data_provider = data_provider
        self.plan = plan
        self.config = model_provider.config
        if obs is None:
            for candidate in (getattr(model_provider, "obs", None),
                              getattr(data_provider, "obs", None)):
                if candidate is not None and candidate.enabled:
                    obs = candidate
                    break
        self.obs = obs if obs is not None else OBS_OFF
        model_provider.register_public_key(data_provider.public_key)
        self._respawn = respawn
        self._worker_restart_budget = worker_restart_budget
        self._retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy(
                max_retries=3,
                jitter_seed=self.config.seed ^ _RETRY_JITTER_SALT,
            )
        )
        self._reconnect_policy = RetryPolicy(
            max_retries=self.config.net_reconnect_attempts,
            base_delay=self.config.net_reconnect_base_delay,
            max_delay=self.config.net_reconnect_max_delay,
        )
        chaos_plan = ChaosPlan.from_config(self.config)
        self.chaos = (ChaosInjector(chaos_plan)
                      if chaos_plan is not None else None)
        self._request_deadline = request_deadline
        self._channel_capacity = channel_capacity
        self._restart_budget = restart_budget
        self._sink_timeout = sink_timeout
        #: Tenant name carried in every handshake: workers host one
        #: isolated session per tenant, so many coordinators (one per
        #: tenant, each with its own keypair) can share a fleet.
        self.tenant = tenant
        self._specs = {
            role: build_worker_spec(model_provider, data_provider,
                                    plan, role, tenant=tenant)
            for role in (ROLE_MODEL, ROLE_DATA)
        }
        self.handles = [
            WorkerHandle(server.server_id, server.role, tuple(address))
            for server, address in zip(servers, workers)
        ]
        for handle in self.handles:
            handle.breaker = CircuitBreaker(
                threshold=self.config.net_breaker_threshold,
                cooldown=self.config.net_breaker_cooldown,
            )
        self._lock = threading.Lock()
        self._monitors: List[threading.Thread] = []
        self._recoveries: List[threading.Thread] = []
        self._stop_monitor = threading.Event()
        self._connected = False
        self._m_deaths = self.obs.registry.counter("net_worker_deaths")
        self._m_respawns = self.obs.registry.counter(
            "net_worker_respawns"
        )
        self._m_reconnects = self.obs.registry.counter(
            "net_worker_reconnects"
        )
        #: The stage proxies every stream runs through, and the spec
        #: dict they were built under (see :meth:`executors`).
        self._executors: List[RemoteStageExecutor] = []
        self._executor_specs: dict | None = None

    # -- wiring --------------------------------------------------------

    def _open_session(self, handle: WorkerHandle,
                      peer: str) -> Connection:
        """Dial a worker and run the role handshake on the new
        connection (used for both control and task connections)."""
        connection = dial(
            handle.address[0], handle.address[1],
            connect_timeout=self.config.net_connect_timeout,
            max_frame_bytes=self.config.net_max_frame_bytes,
            obs=self.obs, peer=peer,
            factory=(self.chaos.connection_factory
                     if self.chaos is not None else None),
        )
        try:
            reply = connection.request(
                Envelope(KIND_HELLO, header=self._specs[handle.role]),
                timeout=self.config.net_handshake_timeout,
            )
        except TransportError:
            connection.close()
            raise
        if reply.kind == KIND_ERROR:
            connection.close()
            raise HandshakeError(
                f"{handle.describe()} rejected the handshake: "
                f"{reply.header.get('message')}"
            )
        if reply.kind != KIND_WELCOME:
            connection.close()
            raise HandshakeError(
                f"expected welcome from {handle.describe()}, got "
                f"{reply.kind}"
            )
        # The dial left the connect timeout armed so the handshake
        # could not stall on a silent peer; clear it so large task
        # frames (or chaos-delayed sends) are not spuriously bounded.
        connection.set_socket_timeout(None)
        return connection

    def _open_task_connection(self, handle: WorkerHandle) -> Connection:
        """Dial and handshake one stage's task connection, counted in
        ``net_task_connections_opened{worker}``."""
        connection = self._open_session(
            handle, peer=f"worker-{handle.server_id}"
        )
        self.obs.registry.counter(
            "net_task_connections_opened", worker=str(handle.server_id)
        ).inc()
        return connection

    def _attach(self, handle: WorkerHandle) -> None:
        handle.control = self._open_session(
            handle, peer=f"worker-{handle.server_id}"
        )
        handle.alive = True

    def connect(self) -> None:
        """Handshake every worker and start one heartbeat probe
        thread per worker (per-worker deadlines: one stalled worker
        cannot delay liveness detection on its neighbours)."""
        if self._connected:
            return
        for handle in self.handles:
            if not handle.draining:
                self._attach(handle)
        self._connected = True
        self._stop_monitor.clear()
        for handle in self.handles:
            if not handle.draining:
                self._start_probe(handle)

    def _start_probe(self, handle: WorkerHandle) -> None:
        """Start one heartbeat probe thread for a handle (called from
        :meth:`connect` for the initial fleet, and again for each
        member an elastic coordinator admits mid-stream)."""
        thread = threading.Thread(
            target=self._probe_loop, args=(handle,),
            name=f"repro-coordinator-heartbeat-{handle.server_id}",
            daemon=True,
        )
        self._monitors.append(thread)
        thread.start()

    def _probe_loop(self, handle: WorkerHandle) -> None:
        interval = self.config.net_heartbeat_interval
        ok_counter = self.obs.registry.counter(
            "net_heartbeats_ok", worker=str(handle.server_id)
        )
        nonce = 0
        while not self._stop_monitor.wait(interval):
            if handle.draining:
                return  # the member left the fleet; nothing to probe
            control = handle.control
            if not handle.alive or control is None:
                continue
            nonce += 1
            generation = handle.generation
            try:
                reply = control.request(
                    Envelope(KIND_HEARTBEAT, header={"nonce": nonce}),
                    timeout=self.config.net_heartbeat_timeout,
                )
                # A chaos-duplicated heartbeat leaves a stale ack in
                # the buffer, so the reply's nonce may lag — only the
                # *kind* proves liveness, by design.
                if reply.kind != KIND_HEARTBEAT_ACK:
                    raise TransportError(
                        f"expected heartbeat-ack, got {reply.kind}"
                    )
            except TransportError:
                self.report_failure(handle, generation)
                continue
            handle.heartbeats_ok += 1
            ok_counter.inc()

    def report_failure(self, handle: WorkerHandle,
                       generation: int | None = None) -> None:
        """Mark a worker dead, cut its connections, start recovery.

        Closing the dead worker's task connections wakes every stage
        thread blocked on it with a :class:`TransportError`, which the
        executor converts to :class:`TransientStageError` — the
        existing retry path then re-injects those in-flight items,
        against a failover worker or the recovered one
        (drain-then-reassign).

        Recovery runs on a background thread
        (:meth:`_recovery_loop`): reconnect with exponential backoff
        first — a healed transient partition costs *zero* restart
        budget — and only then, if the address stays dead, the respawn
        hook within ``worker_restart_budget``.

        Args:
            generation: the handle generation the caller observed the
                failure on; a stale report (the slot was already
                recovered into a newer generation) is ignored so one
                worker death is never double-counted against a fresh
                replacement.
        """
        with self._lock:
            if not handle.alive:
                return
            if generation is not None \
                    and handle.generation != generation:
                return
            handle.alive = False
            handle.generation += 1
            recovery_generation = handle.generation
            recover = (not self._stop_monitor.is_set()
                       and not handle.draining)
        self._m_deaths.inc()
        self.obs.tracer.event(
            "worker-death", server=handle.server_id, role=handle.role
        )
        if handle.control is not None:
            handle.control.close()
            handle.control = None
        for connection in handle.drain_connections():
            connection.close()
        if recover:
            thread = threading.Thread(
                target=self._recovery_loop,
                args=(handle, recovery_generation),
                name=f"repro-coordinator-recover-{handle.server_id}",
                daemon=True,
            )
            with self._lock:
                self._recoveries.append(thread)
            thread.start()

    def _recovery_loop(self, handle: WorkerHandle,
                       generation: int) -> None:
        """Heal one worker slot: reconnect, then (maybe) respawn.

        Backoff jitter comes from an RNG seeded by
        ``(master seed, server id, generation)``, so a given death's
        reconnect schedule replays exactly under the same seed.  The
        per-worker circuit breaker refuses attempts while open, so a
        persistently-dead endpoint is not hammered across repeated
        deaths of the same slot.
        """
        policy = self._reconnect_policy
        rng = random.Random(
            (self.config.seed ^ _RECONNECT_SALT) * 1_000_003
            + handle.server_id * 97 + generation
        )
        breaker = handle.breaker
        for attempt in range(1, policy.max_retries + 1):
            if self._stop_monitor.wait(
                    policy.backoff_delay(attempt, rng)):
                return
            with self._lock:
                if handle.alive or handle.generation != generation:
                    return  # someone else healed / superseded the slot
            if breaker is not None and not breaker.allow():
                continue  # open breaker: burn this attempt cooling down
            try:
                self._attach(handle)
            except (TransportError, HandshakeError):
                if breaker is not None:
                    breaker.record_failure()
                continue
            if breaker is not None:
                breaker.record_success()
            handle.reconnects += 1
            self._m_reconnects.inc()
            self.obs.tracer.event(
                "worker-reconnect", server=handle.server_id,
                role=handle.role, attempt=attempt,
            )
            return
        with self._lock:
            if handle.alive or handle.generation != generation:
                return
            do_respawn = (self._respawn is not None
                          and handle.restarts
                          < self._worker_restart_budget
                          and not self._stop_monitor.is_set())
            if do_respawn:
                handle.restarts += 1
        if not do_respawn:
            return  # slot stays dead; failover carries the load
        try:
            handle.address = tuple(
                self._respawn(handle.server_id, handle.role)
            )
            self._attach(handle)
            self._m_respawns.inc()
            if breaker is not None:
                breaker.record_success()
        except (TransportError, HandshakeError):
            pass  # slot stays dead; failover carries the load

    def pick_worker(self, role: str,
                    stage_index: int) -> WorkerHandle:
        """A live worker for a stage: its assigned server if up, else
        any live same-role worker (failover)."""
        assigned = self.plan.assignments[stage_index].server_id
        with self._lock:
            preferred = self.handles[assigned]
            if preferred.alive and not preferred.draining:
                return preferred
            for handle in self.handles:
                if handle.role == role and handle.alive \
                        and not handle.draining:
                    return handle
        raise TransientStageError(
            f"no live {role} worker for stage {stage_index} "
            f"({preferred.describe()})"
        )

    # -- running -------------------------------------------------------

    def executors(self) -> List[RemoteStageExecutor]:
        """One remote proxy per plan stage, shared by every stream.

        The set (and each task connection it has dialed) lives for as
        long as the handshake specs do.  Once :attr:`_specs` has been
        rebuilt (an elastic re-plan), the next call closes the old set
        and builds a new one, so a connection handshaken under an old
        spec never carries a task of a later stream and every worker
        re-pins its session on the re-dial.
        """
        with self._lock:
            if self._executor_specs is self._specs:
                return list(self._executors)
            retired = self._executors
            self._executors = [
                RemoteStageExecutor(
                    self, stage.index,
                    ROLE_MODEL if stage.kind is LayerKind.LINEAR
                    else ROLE_DATA,
                )
                for stage in self.plan.stages
            ]
            self._executor_specs = self._specs
            current = list(self._executors)
        for executor in retired:
            executor.close()
        return current

    def run_stream(
        self,
        inputs: Sequence[np.ndarray],
        request_deadline: float | None = None,
    ) -> StreamStats:
        """Stream inputs through the remote cluster.

        Identical contract to the in-process
        :meth:`~repro.stream.pipeline.Pipeline.run_stream` — it *is*
        that method, running over remote stage proxies.

        Args:
            request_deadline: per-request deadline for this stream
                only, overriding the constructor's (the serving
                gateway threads each job's remaining budget through
                here).
        """
        if not self._connected:
            self.connect()
        pipeline = Pipeline(
            self.model_provider,
            self.data_provider,
            self.plan,
            channel_capacity=self._channel_capacity,
            retry_policy=self._retry_policy,
            request_deadline=(request_deadline
                              if request_deadline is not None
                              else self._request_deadline),
            restart_budget=self._restart_budget,
            sink_timeout=self._sink_timeout,
            executors=self.executors(),
            obs=self.obs,
        )
        return pipeline.run_stream(inputs)

    # -- teardown ------------------------------------------------------

    def close(self, shutdown_workers: bool = False) -> None:
        """Stop the monitor and drop every connection.

        Args:
            shutdown_workers: also send each live worker a
                server-scoped shutdown envelope so standalone worker
                processes exit cleanly.
        """
        self._stop_monitor.set()
        for thread in self._monitors:
            thread.join(timeout=10.0)
        self._monitors = []
        with self._lock:
            recoveries = list(self._recoveries)
            self._recoveries = []
        for thread in recoveries:
            thread.join(timeout=10.0)
        with self._lock:
            executors, self._executors = self._executors, []
            self._executor_specs = None
        for executor in executors:
            executor.close()
        for handle in self.handles:
            if shutdown_workers and handle.alive \
                    and handle.control is not None:
                try:
                    handle.control.send(Envelope(
                        KIND_SHUTDOWN, header={"scope": "server"}
                    ))
                except TransportError:
                    pass
            if handle.control is not None:
                handle.control.close()
                handle.control = None
            for connection in handle.drain_connections():
                connection.close()
            handle.alive = False
        self._connected = False

    def __enter__(self) -> "Coordinator":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
