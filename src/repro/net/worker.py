"""The remote stage worker: one process serving stage work over TCP.

A :class:`WorkerServer` listens on a host:port (``python -m repro
worker --listen HOST:PORT``; port 0 picks a free one), accepts framed
connections from a coordinator, and executes linear or non-linear
stage work with the same stage objects (:mod:`repro.protocol.stages`)
and stream executors the in-process runtimes run — the handshake spec
(:func:`repro.net.wire.build_worker_spec`) carries everything needed
to rebuild them in a fresh process, and each tenant session builds
one engine (:func:`repro.crypto.engine.party_engine`) for them.

Connection protocol (strict request/response per connection):

1. coordinator sends ``hello`` with the role spec; worker pins its
   role on first contact, builds session state, replies ``welcome``;
2. then any mix of ``task`` (-> ``result`` / ``error``),
   ``heartbeat`` (-> ``heartbeat-ack``), and ``shutdown``.

Role pinning enforces the paper's privacy separation at the process
boundary: a worker that ever accepted model-provider state refuses a
data-role handshake (and vice versa), so no single OS process holds
both the model parameters and the private key.

Obfuscation across processes: linear executors get *stateless*
obfuscators (permutations rederived from ``(master_seed, round_id)``),
with round ids namespaced per stage (``first_round=stage_index,
round_stride=num_stages``), so any same-seeded worker can invert any
round issued anywhere — including re-issued rounds on the retry /
failover path, where inversion must be idempotent.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading

from ..config import DEFAULT_CONFIG
from ..crypto.engine import party_engine
from ..crypto.serialize import (
    private_key_from_json,
    public_key_from_json,
)
from ..errors import (
    ClusterMembershipError,
    HandshakeError,
    PoisonedRequestError,
    ProtocolError,
    TransientStageError,
    TransportError,
)
from ..obfuscation.obfuscator import Obfuscator
from ..observability import OBS_OFF, Observability
from ..protocol.roles import MODEL_RNG_SALT, OBFUSCATOR_SALT
from ..protocol.stages import LinearStage, NonLinearStage
from ..stream.executors import (
    LinearStageExecutor,
    NonLinearStageExecutor,
)
from .transport import (
    KIND_ANNOUNCE,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HEARTBEAT_ACK,
    KIND_HELLO,
    KIND_SHUTDOWN,
    KIND_TASK,
    KIND_WELCOME,
    VERSION,
    Connection,
    Envelope,
    dial,
)
from .wire import (
    CLASS_PERMANENT,
    CLASS_TRANSIENT,
    CLASS_UNCLASSIFIED,
    JOIN_TIMEOUT,
    ROLE_DATA,
    ROLE_MODEL,
    announce_from_envelope,
    config_from_wire,
    error_envelope,
    fold_from_wire,
    item_from_task,
    join_envelope,
    leave_envelope,
    linear_plan_from_wire,
    result_envelope,
)


def _spec_digest(spec: dict) -> str:
    """Canonical digest of one handshake spec.

    A tenant session is pinned to this digest, not just its keypair:
    a re-handshake whose config or stage geometry changed (gateway
    reconfigured/redeployed against a live fleet) must rebuild the
    session's executors rather than silently compute with stale
    plans.  The spec is JSON-safe by construction (it crossed the
    wire as an envelope header), so sorted-key JSON is canonical.
    """
    return hashlib.sha256(
        json.dumps(spec, sort_keys=True,
                   separators=(",", ":")).encode("utf-8")
    ).hexdigest()


class _Session:
    """Per-tenant stage state rebuilt from one handshake spec.

    One worker process hosts any number of sessions side by side —
    keyed by tenant name, each with its own keypair and executors —
    but only ever of **one role** (the server pins the role, not the
    session)."""

    def __init__(self, spec: dict, obs: Observability):
        if spec.get("version") != VERSION:
            raise HandshakeError(
                f"coordinator speaks version {spec.get('version')}, "
                f"worker speaks {VERSION}"
            )
        role = spec.get("role")
        if role not in (ROLE_MODEL, ROLE_DATA):
            raise HandshakeError(f"unknown worker role {role!r}")
        self.role = role
        self.tenant = str(spec.get("tenant", "default"))
        self.spec_digest = _spec_digest(spec)
        self.obs = obs
        self.m_tasks = obs.registry.counter("net_worker_tasks",
                                            tenant=self.tenant)
        try:
            self.config = config_from_wire(spec["config"])
            self.public_key = public_key_from_json(spec["public_key"])
            self.num_stages = int(spec["num_stages"])
            self.stages = spec["stages"]
            self.fold = (fold_from_wire(spec["fold"])
                         if role == ROLE_MODEL else None)
        except KeyError as exc:
            raise HandshakeError(f"spec missing {exc}") from exc
        self._executors: dict[int, object] = {}
        self._lock = threading.Lock()
        self.private_key = None
        if role == ROLE_DATA:
            try:
                self.private_key = private_key_from_json(
                    spec["private_key"]
                )
                self.value_decimals = int(spec["value_decimals"])
            except KeyError as exc:
                raise HandshakeError(f"spec missing {exc}") from exc
            if self.private_key.public_key.n != self.public_key.n:
                raise HandshakeError(
                    "private key does not match the session public key"
                )
        else:
            self._rng = random.Random(self.config.seed ^ MODEL_RNG_SALT)
        #: The session's one engine, built like the in-process party's
        #: and shared by all of this session's stages.
        self.engine = party_engine(self.public_key, self.config, obs,
                                   private_key=self.private_key)

    def _stage_spec(self, stage_index: int) -> dict:
        stage = self.stages.get(str(stage_index))
        if stage is None:
            raise ProtocolError(
                f"stage {stage_index} is not in the handshake spec"
            )
        expected = "linear" if self.role == ROLE_MODEL else "nonlinear"
        if stage.get("kind") != expected:
            raise ProtocolError(
                f"a {self.role} worker cannot run {stage.get('kind')} "
                f"stage {stage_index} (privacy separation)"
            )
        return stage

    def executor_for(self, stage_index: int):
        with self._lock:
            executor = self._executors.get(stage_index)
            if executor is not None:
                return executor
            stage = self._stage_spec(stage_index)
            if self.role == ROLE_MODEL:
                # The wire plans are recompiled here, once per stage
                # per session: this worker's layers run the same
                # schedules as the in-process runtime.
                executor = LinearStageExecutor(LinearStage(
                    linear_plan_from_wire(stage_index, stage),
                    Obfuscator(
                        self.config.seed ^ OBFUSCATOR_SALT,
                        first_round=stage_index,
                        round_stride=self.num_stages,
                        stateless=True,
                    ),
                    self.engine,
                    self._rng,
                    self.fold,
                    final=stage_index == self.num_stages - 2,
                ))
            else:
                executor = NonLinearStageExecutor(NonLinearStage(
                    stage["activations"],
                    self.private_key,
                    self.value_decimals,
                    self.engine,
                    final=stage_index == self.num_stages - 1,
                ))
            self._executors[stage_index] = executor
            return executor

    def shutdown(self) -> None:
        with self._lock:
            self._executors.clear()


class WorkerServer:
    """Serves stage work over TCP; in-process (tests) or standalone.

    Args:
        host / port: listen address; port 0 binds an ephemeral port
            (read the real one from :attr:`address` after
            :meth:`start`).
        max_frame_bytes: transport frame ceiling, enforced both ways.
        obs: observability sinks; worker-side stage spans reuse the
            ``trace_id`` / ``trace_parent`` propagated in each task
            envelope, so a request's trace crosses the wire intact.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_frame_bytes: int =
                 DEFAULT_CONFIG.net_max_frame_bytes,
                 obs: Observability | None = None):
        self._max_frame_bytes = max_frame_bytes
        self.obs = obs if obs is not None else OBS_OFF
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        #: Per-tenant sessions; the *role* is pinned server-wide (one
        #: process never holds both model parameters and a private
        #: key), the handshake *spec digest* is pinned per tenant: an
        #: identical re-handshake reuses the session, the same keypair
        #: with a changed spec rebuilds it, a different keypair is
        #: refused.
        self._sessions: dict[str, _Session] = {}
        self._role: str | None = None
        self._session_lock = threading.Lock()
        self._connections: list[Connection] = []
        self._connections_lock = threading.Lock()
        self._stopped = threading.Event()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Serve in a background thread; returns the bound address."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-worker-{self.address[1]}", daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI path)."""
        self._accept_loop()

    def stop(self, abort: bool = False) -> None:
        """Stop serving.

        Args:
            abort: also hard-close every open connection — simulates a
                crashed worker mid-task (tests kill workers this way;
                the coordinator sees broken frames, not clean EOFs).
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        try:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() makes it return immediately.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if abort:
            with self._connections_lock:
                connections = list(self._connections)
            for connection in connections:
                connection.close()
        with self._session_lock:
            for session in self._sessions.values():
                session.shutdown()
            self._sessions.clear()
        thread = self._accept_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return not self._stopped.is_set()

    # -- elastic membership (docs/ELASTIC.md) --------------------------

    def _membership_roundtrip(self, host: str, port: int, envelope,
                              timeout: float | None) -> dict:
        """One envelope round trip against a membership listener."""
        connection = dial(
            host, port,
            max_frame_bytes=self._max_frame_bytes,
            obs=self.obs, peer="membership",
        )
        try:
            reply = connection.request(envelope, timeout=timeout)
        finally:
            connection.close()
        if reply.kind == KIND_ERROR:
            raise ClusterMembershipError(
                f"membership request refused: "
                f"{reply.header.get('message')}"
            )
        if reply.kind != KIND_ANNOUNCE:
            raise TransportError(
                f"expected an announce envelope, got {reply.kind}"
            )
        return announce_from_envelope(reply)

    def join_fleet(self, host: str, port: int, role: str,
                   cores: int = 2,
                   timeout: float | None = None) -> dict:
        """Register this (already started) worker with a running
        elastic coordinator's membership listener.

        Advertises this server's own listen address; the coordinator
        dials back with the normal hello handshake — which is why the
        accept loop must already be running (:meth:`start` or
        :meth:`serve_forever`).

        Returns the announce document:
        ``{"epoch", "server_id", "role", "status"}``.
        """
        if self._stopped.is_set():
            raise ClusterMembershipError(
                "cannot join a fleet after stop()"
            )
        return self._membership_roundtrip(
            host, port,
            join_envelope(self.address[0], self.address[1], role,
                          cores),
            timeout if timeout is not None else JOIN_TIMEOUT,
        )

    def leave_fleet(self, host: str, port: int, server_id: int,
                    timeout: float | None = None) -> dict:
        """Ask the coordinator to drain this worker's slot out of the
        fleet (graceful departure; the process keeps serving whatever
        is still in flight until the drain quiesces it)."""
        return self._membership_roundtrip(
            host, port, leave_envelope(server_id),
            timeout if timeout is not None else JOIN_TIMEOUT,
        )

    # -- serving -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            connection = Connection(
                sock, self._max_frame_bytes, obs=self.obs,
                peer="coordinator",
            )
            with self._connections_lock:
                self._connections.append(connection)
            threading.Thread(
                target=self._serve_connection, args=(connection,),
                name=f"repro-worker-conn-{self.address[1]}", daemon=True,
            ).start()

    def _handshake(self, connection: Connection) -> _Session | None:
        envelope = connection.recv(timeout=60.0)
        if envelope.kind != KIND_HELLO:
            raise HandshakeError(
                f"expected hello, got {envelope.kind}"
            )
        spec = envelope.header
        tenant = str(spec.get("tenant", "default"))
        with self._session_lock:
            if self._role is not None \
                    and self._role != spec.get("role"):
                raise HandshakeError(
                    f"worker is pinned to role {self._role!r}; "
                    f"refusing a {spec.get('role')!r} handshake "
                    "(privacy separation)"
                )
            session = self._sessions.get(tenant)
            if session is None:
                session = _Session(spec, self.obs)
                self._sessions[tenant] = session
                self._role = session.role
            elif session.spec_digest != _spec_digest(spec):
                try:
                    offered_n = public_key_from_json(
                        spec["public_key"]
                    ).n
                except (KeyError, TypeError, ValueError) as exc:
                    raise HandshakeError(
                        f"malformed public key in re-handshake: {exc}"
                    ) from exc
                if session.public_key.n != offered_n:
                    raise HandshakeError(
                        f"tenant {tenant!r} is pinned to a different "
                        "keypair on this worker; refusing the "
                        "handshake (tenant isolation)"
                    )
                # Same tenant, same keypair, different spec: the
                # coordinator was reconfigured (config knobs, stage
                # geometry).  Reusing the old executors would compute
                # with stale plans, so rebuild the session instead.
                session.shutdown()
                session = _Session(spec, self.obs)
                self._sessions[tenant] = session
                self.obs.registry.counter(
                    "net_worker_session_rebuilt", tenant=tenant
                ).inc()
        connection.send(Envelope(KIND_WELCOME, header={
            "version": VERSION,
            "role": session.role,
            "tenant": session.tenant,
            "port": self.address[1],
        }))
        return session

    def _serve_connection(self, connection: Connection) -> None:
        try:
            try:
                session = self._handshake(connection)
            except HandshakeError as exc:
                connection.send(error_envelope(
                    -1, CLASS_PERMANENT, f"handshake failed: {exc}"
                ))
                return
            while not self._stopped.is_set():
                envelope = connection.recv(timeout=None)
                if envelope.kind == KIND_HEARTBEAT:
                    connection.send(self._heartbeat_ack(envelope))
                elif envelope.kind == KIND_TASK:
                    connection.send(self._run_task(session, envelope))
                elif envelope.kind == KIND_SHUTDOWN:
                    if envelope.header.get("scope") == "server":
                        self.stop()
                    return
                else:
                    connection.send(error_envelope(
                        -1, CLASS_PERMANENT,
                        f"unexpected {envelope.kind} envelope",
                    ))
        except TransportError:
            return  # peer went away; nothing to clean up per-connection
        finally:
            connection.close()
            with self._connections_lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _heartbeat_ack(self, envelope: Envelope) -> Envelope:
        """Build the ack for one heartbeat.  A seam: liveness tests
        subclass this to stall a single worker's probe path without
        touching its task path."""
        return Envelope(
            KIND_HEARTBEAT_ACK,
            header={"nonce": envelope.header.get("nonce")},
        )

    def _run_task(self, session: _Session,
                  envelope: Envelope) -> Envelope:
        request_id = int(envelope.header.get("request_id", -1))
        try:
            item = item_from_task(envelope, session.public_key)
            stage_index = int(envelope.header["stage_index"])
            executor = session.executor_for(stage_index)
            with self.obs.tracer.span(
                f"remote-stage-{stage_index}",
                trace_id=item.trace_id,
                parent_id=item.trace_parent,
                request_id=item.request_id,
                stage=stage_index,
            ):
                item = executor.process(item)
            session.m_tasks.inc()
            return result_envelope(item)
        except Exception as exc:  # noqa: BLE001 - classified for the wire
            if isinstance(exc, TransientStageError):
                classification = CLASS_TRANSIENT
            elif isinstance(exc, (PoisonedRequestError, ProtocolError)):
                classification = CLASS_PERMANENT
            else:
                classification = CLASS_UNCLASSIFIED
            return error_envelope(request_id, classification, repr(exc))
