"""The coordinator-side membership listener (docs/ELASTIC.md).

The coordinator only ever *dials* workers — it has no listen socket of
its own — so elastic membership adds one: a tiny TCP accept loop that
speaks exactly one ``join`` or ``leave`` envelope per connection and
answers with an ``announce`` carrying the new membership epoch.

A joining worker advertises its **own** listen address in the join
header; the coordinator admits it (appending a cluster slot) and then
dials *back* through the normal hello/welcome handshake, so the
membership path never duplicates the session machinery — the new
member is handshaken, heartbeat-probed, and failure-recovered exactly
like a seed worker.  Errors (unknown role, draining the last worker
of a role, a failed dial-back) come back as ``error`` envelopes, so a
misbehaving join attempt cannot wedge the listener.
"""

from __future__ import annotations

import socket
import threading

from ..errors import (
    ClusterError,
    HandshakeError,
    TransportError,
)
from ..net.transport import (
    KIND_JOIN,
    KIND_LEAVE,
    Connection,
)
from ..net.wire import (
    JOIN_TIMEOUT,
    announce_envelope,
    error_envelope,
    join_from_envelope,
    leave_from_envelope,
)


class MembershipListener:
    """Accepts join/leave envelopes on behalf of one coordinator.

    Args:
        coordinator: an
            :class:`~repro.cluster.elastic.ElasticCoordinator`; its
            ``admit_join`` / ``drain_member`` methods do the actual
            membership work.
        host / port: listen address; port 0 binds an ephemeral port
            (read the real one from :attr:`address`).
    """

    def __init__(self, coordinator, host: str = "127.0.0.1",
                 port: int = 0):
        self._coordinator = coordinator
        self._max_frame_bytes = \
            coordinator.config.net_max_frame_bytes
        self.obs = coordinator.obs
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.address: tuple[str, int] = \
            self._listener.getsockname()[:2]
        self._stopped = threading.Event()
        self._accept_thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Accept in a background thread; returns the bound address."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-cluster-membership-{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        thread = self._accept_thread
        if thread is not None \
                and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return not self._stopped.is_set()

    # -- serving -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            connection = Connection(
                sock, self._max_frame_bytes, obs=self.obs,
                peer="member",
            )
            threading.Thread(
                target=self._serve_connection, args=(connection,),
                name=f"repro-cluster-member-{self.address[1]}",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: Connection) -> None:
        try:
            try:
                envelope = connection.recv(timeout=JOIN_TIMEOUT)
                reply = self._dispatch(envelope)
            except (ClusterError, HandshakeError) as exc:
                reply = error_envelope(0, "membership", str(exc))
            except TransportError:
                return  # peer vanished mid-envelope; nothing to say
            try:
                connection.send(reply)
            except TransportError:
                pass  # peer gave up waiting; membership still applied
        finally:
            connection.close()

    def _dispatch(self, envelope):
        if envelope.kind == KIND_JOIN:
            host, port, role, cores = join_from_envelope(envelope)
            handle, epoch = self._coordinator.admit_join(
                (host, port), role, cores=cores
            )
            return announce_envelope(epoch, handle.server_id,
                                     handle.role, "joined")
        if envelope.kind == KIND_LEAVE:
            server_id = leave_from_envelope(envelope)
            role = self._coordinator.handles[server_id].role \
                if 0 <= server_id < len(self._coordinator.handles) \
                else "unknown"
            epoch = self._coordinator.drain_member(server_id)
            return announce_envelope(epoch, server_id, role,
                                     "draining")
        raise ClusterError(
            f"membership listener got a {envelope.kind!r} envelope "
            "(expected join or leave)"
        )
